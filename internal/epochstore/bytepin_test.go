package epochstore

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/dataset"
	"github.com/wikistale/wikistale/internal/ingest"
)

// The byte pins fix the snapshot layout on the small corpus: a model
// epoch as the live loop commits it, and the same corpus with an empty
// model. Stores written by an earlier build boot only while these hold;
// a deliberate layout change must bump snapVersion and update the pins.
const (
	pinModelEpochSHA = "43f8775de1e15e3d1f0ec1714d16d861cf6e246045a92d25ea1b17d91b69f69f"
	pinCorpusSHA     = "f82f226cf1bbdb9be6684180762d63a01b9da73943d5cfce68724023c1ca88a1"
)

func sha(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestSnapshotBytesPinned commits a detector trained on dataset.Small()
// with its staging checkpoint's ordinals and no quality source, and
// checks the snapshot file's sha256; then it checks the sha256 of the
// small corpus encoded as a snapshot with an empty model.
func TestSnapshotBytesPinned(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	st, err := ingest.NewStagingFromCube(cube, cfg.Filter)
	if err != nil {
		t.Fatal(err)
	}
	hs, stats, err := st.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	det, err := core.TrainFiltered(hs, stats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	rec, err := openStore(t, dir, 0).Snapshot(context.Background(), det, st.SnapshotCheckpoint())
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, rec.File))
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(data); got != pinModelEpochSHA {
		t.Errorf("model epoch sha256 %s, pinned %s", got, pinModelEpochSHA)
	}
	corpus := referenceCorpus(cube)
	if p, err := decodeSnapshot(corpus); err != nil || p.cube.NumChanges() != cube.NumChanges() {
		t.Fatalf("reference corpus does not decode as a snapshot: %v", err)
	}
	if got := sha(corpus); got != pinCorpusSHA {
		t.Errorf("corpus sha256 %s, pinned %s", got, pinCorpusSHA)
	}
}

// referenceCorpus spells out the version-2 snapshot layout of a cube
// with an empty model, independently of the encoder: magic, version, a
// zero-length model, the three dictionaries, the entity table with
// first-seen ordinals per (page, template), the length-prefixed "WCS1"
// change payload in canonical order, and empty stage, history and
// quality sections.
func referenceCorpus(cube *changecube.Cube) []byte {
	cube.Sort()
	buf := append([]byte("WES1"), 2, 0)
	for _, d := range []*changecube.Dict{cube.Properties, cube.Templates, cube.Pages} {
		buf = binary.AppendUvarint(buf, uint64(d.Len()))
		for _, name := range d.Names() {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(cube.NumEntities()))
	next := make(map[changecube.EntityInfo]int)
	for e := 0; e < cube.NumEntities(); e++ {
		info := cube.Entity(changecube.EntityID(e))
		buf = binary.AppendUvarint(buf, uint64(info.Template))
		buf = binary.AppendUvarint(buf, uint64(info.Page))
		buf = binary.AppendUvarint(buf, uint64(next[info]))
		next[info]++
	}
	changes := binary.AppendUvarint([]byte("WCS1"), uint64(cube.NumChanges()))
	prev := int64(0)
	cube.EachChange(func(_ int, ch changecube.Change) bool {
		changes = binary.AppendVarint(changes, ch.Time-prev)
		prev = ch.Time
		changes = binary.AppendUvarint(changes, uint64(ch.Entity))
		changes = binary.AppendUvarint(changes, uint64(ch.Property))
		kind := byte(ch.Kind)
		if ch.Bot {
			kind |= 0x80
		}
		changes = append(changes, kind)
		changes = binary.AppendUvarint(changes, uint64(len(ch.Value)))
		changes = append(changes, ch.Value...)
		return true
	})
	buf = binary.AppendUvarint(buf, uint64(len(changes)))
	buf = append(buf, changes...)
	return append(buf, 0, 0, 0)
}
