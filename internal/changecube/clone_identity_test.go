package changecube_test

import (
	"bytes"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/dataset"
)

// TestCloneEncodeBitIdentity: under the chunked columnar log, a clone
// must encode to the exact bytes of its original, and appending to the
// clone — including into the copy-on-write tail chunk the two cubes
// share at clone time — must not disturb the original's encoding. The
// corpus is large enough to span multiple log chunks, so both the
// shared-chunk and owned-chunk paths are exercised.
func TestCloneEncodeBitIdentity(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cube.Sort()
	want := changecube.EncodeCubeChanges(cube)

	clone := cube.Clone()
	if got := changecube.EncodeCubeChanges(clone); !bytes.Equal(want, got) {
		t.Fatalf("clone encodes to %d bytes, original to %d — not bit-identical", len(got), len(want))
	}

	// Mutate the clone well past one chunk so the tail chunk is rewritten.
	e := clone.AddEntityNamed("clone-only-template", "Clone Only Page")
	p := changecube.PropertyID(clone.Properties.Intern("clone_only_prop"))
	last := clone.TimeAt(clone.NumChanges() - 1)
	for i := 0; i < 40000; i++ {
		clone.Add(changecube.Change{
			Time: last + int64(i) + 1, Entity: e, Property: p,
			Value: "x", Kind: changecube.Update,
		})
	}
	if got := changecube.EncodeCubeChanges(cube); !bytes.Equal(want, got) {
		t.Fatal("original's encoding changed after mutating the clone")
	}
	if err := cube.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := clone.Validate(); err != nil {
		t.Fatal(err)
	}
	if clone.NumChanges() != cube.NumChanges()+40000 {
		t.Fatalf("clone holds %d changes, want %d", clone.NumChanges(), cube.NumChanges()+40000)
	}
}
