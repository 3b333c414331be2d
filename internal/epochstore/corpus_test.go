package epochstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/dataset"
)

// writeCorpusFile writes cube with WriteCorpus into a temp file.
func writeCorpusFile(t *testing.T, cube *changecube.Cube) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, cube); err != nil {
		t.Fatalf("WriteCorpus: %v", err)
	}
	return writeTemp(t, buf.Bytes())
}

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func assertCubesEqual(t *testing.T, want, got *changecube.Cube) {
	t.Helper()
	if !reflect.DeepEqual(want.Properties.Names(), got.Properties.Names()) {
		t.Fatal("property dictionaries differ")
	}
	if !reflect.DeepEqual(want.Templates.Names(), got.Templates.Names()) {
		t.Fatal("template dictionaries differ")
	}
	if !reflect.DeepEqual(want.Pages.Names(), got.Pages.Names()) {
		t.Fatal("page dictionaries differ")
	}
	if want.NumEntities() != got.NumEntities() {
		t.Fatalf("entity counts differ: %d vs %d", want.NumEntities(), got.NumEntities())
	}
	for i := 0; i < want.NumEntities(); i++ {
		if want.Entity(changecube.EntityID(i)) != got.Entity(changecube.EntityID(i)) {
			t.Fatalf("entity %d differs", i)
		}
	}
	if !reflect.DeepEqual(want.Changes(), got.Changes()) {
		t.Fatal("change lists differ")
	}
}

// smallCube has two pages, two templates, three entities (two infoboxes
// on one page) and a handful of changes out of chronological order.
func smallCube() *changecube.Cube {
	c := changecube.New()
	e1 := c.AddEntityNamed("infobox settlement", "London")
	e2 := c.AddEntityNamed("infobox settlement", "Paris")
	e3 := c.AddEntityNamed("infobox boxer", "London")
	pop := changecube.PropertyID(c.Properties.Intern("population"))
	wins := changecube.PropertyID(c.Properties.Intern("wins"))
	c.Add(changecube.Change{Time: 2000, Entity: e1, Property: pop, Value: "9m", Kind: changecube.Update})
	c.Add(changecube.Change{Time: 1000, Entity: e2, Property: pop, Value: "2m", Kind: changecube.Update})
	c.Add(changecube.Change{Time: 1500, Entity: e3, Property: wins, Value: "10", Kind: changecube.Update, Bot: true})
	c.Add(changecube.Change{Time: 1000, Entity: e1, Property: pop, Value: "8m", Kind: changecube.Create})
	return c
}

func TestCorpusRoundTripSmall(t *testing.T) {
	c := smallCube()
	got, err := ReadCorpus(writeCorpusFile(t, c))
	if err != nil {
		t.Fatalf("ReadCorpus: %v", err)
	}
	assertCubesEqual(t, c, got)
}

func randomCube(rng *rand.Rand, nEntities, nProps, nChanges int) *changecube.Cube {
	c := changecube.New()
	for i := 0; i < nProps; i++ {
		// Suffix with the index: random words may collide, and Intern
		// deduplicates, which would leave fewer ids than requested.
		c.Properties.Intern(fmt.Sprintf("%s#%d", randWord(rng), i))
	}
	for i := 0; i < nEntities; i++ {
		c.AddEntityNamed(randWord(rng), randWord(rng))
	}
	for i := 0; i < nChanges; i++ {
		c.Add(changecube.Change{
			Time:     rng.Int63n(1 << 33),
			Entity:   changecube.EntityID(rng.Intn(nEntities)),
			Property: changecube.PropertyID(rng.Intn(nProps)),
			Value:    randWord(rng),
			Kind:     changecube.ChangeKind(rng.Intn(3)),
			Bot:      rng.Intn(10) == 0,
		})
	}
	return c
}

func randWord(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnop_0123 |é"
	n := rng.Intn(12)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[rng.Intn(len(alphabet))])
	}
	return b.String()
}

// TestCorpusRoundTripRandom writes and re-reads many random cubes.
func TestCorpusRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 25; iter++ {
		c := randomCube(rng, 1+rng.Intn(20), 1+rng.Intn(10), rng.Intn(400))
		got, err := ReadCorpus(writeCorpusFile(t, c))
		if err != nil {
			t.Fatalf("iter %d: ReadCorpus: %v", iter, err)
		}
		assertCubesEqual(t, c, got)
		if err := got.Validate(); err != nil {
			t.Fatalf("iter %d: deserialized cube invalid: %v", iter, err)
		}
	}
}

func TestReadCorpusRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"bad magic": []byte("NOPE????"),
		"truncated": []byte("WES1\x02\x05"),
	}
	for name, data := range cases {
		if _, err := ReadCorpus(writeTemp(t, data)); err == nil {
			t.Errorf("%s: ReadCorpus accepted garbage", name)
		}
	}
	if _, err := ReadCorpus(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("ReadCorpus of a missing file succeeded")
	}
	// A file that is not a snapshot names its magic and the retired
	// change-cube format instead of just "bad magic".
	_, err := ReadCorpus(writeTemp(t, cases["bad magic"]))
	if err == nil || !strings.Contains(err.Error(), `magic "NOPE"`) || !strings.Contains(err.Error(), ".wcc") {
		t.Errorf("non-snapshot file: error %v does not name the magic and the old format", err)
	}
}

func TestReadCorpusRejectsTruncatedValid(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, smallCube()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Every prefix must error, not panic.
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadCorpus(writeTemp(t, full[:cut])); err == nil {
			t.Errorf("prefix of %d bytes accepted", cut)
		}
	}
}

// TestWriteCorpusMatchesPin: WriteCorpus produces the pinned corpus bytes
// of the small corpus, byte for byte the reference layout.
func TestWriteCorpusMatchesPin(t *testing.T) {
	cube, _, err := dataset.Generate(dataset.Small())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCorpus(&buf, cube); err != nil {
		t.Fatal(err)
	}
	if got := sha(buf.Bytes()); got != pinCorpusSHA {
		t.Fatalf("WriteCorpus sha256 %s, pinned %s", got, pinCorpusSHA)
	}
	if !bytes.Equal(buf.Bytes(), referenceCorpus(cube)) {
		t.Fatal("WriteCorpus differs from the reference layout")
	}
}

// TestReadCorpusOfEpochFile: an epoch snapshot is a corpus too; reading
// it yields the cube the detector was trained on.
func TestReadCorpusOfEpochFile(t *testing.T) {
	det, cp, _ := trainEpoch(t)
	dir := t.TempDir()
	rec, err := openStore(t, dir, 0).Snapshot(context.Background(), det, cp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadCorpus(filepath.Join(dir, rec.File))
	if err != nil {
		t.Fatalf("ReadCorpus of an epoch file: %v", err)
	}
	// Compare against a clone: Changes sorts, and the detector is shared.
	assertCubesEqual(t, det.Histories().Cube().Clone(), got)
}
