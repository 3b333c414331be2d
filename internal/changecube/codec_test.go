package changecube

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// codecCube returns a cube with nProps properties and nEntities entities
// (one page each) and no changes.
func codecCube(nEntities, nProps int) *Cube {
	c := New()
	for i := 0; i < nProps; i++ {
		c.Properties.Intern(fmt.Sprintf("p%d", i))
	}
	for i := 0; i < nEntities; i++ {
		c.AddEntityNamed("t", fmt.Sprintf("Page %d", i))
	}
	return c
}

// decodeInto decodes an encoded payload into a change-less copy of c's
// dictionaries and entities — what a reader of the payload rebuilds.
func decodeInto(t *testing.T, c *Cube, data []byte) (*Cube, int) {
	t.Helper()
	r := New()
	for _, name := range c.Properties.Names() {
		r.Properties.Intern(name)
	}
	for e := 0; e < c.NumEntities(); e++ {
		info := c.Entity(EntityID(e))
		r.AddEntityNamed(c.Templates.Name(int32(info.Template)), c.Pages.Name(int32(info.Page)))
	}
	n, err := DecodeChanges(data, func(ch Change) error {
		r.Add(ch)
		return nil
	})
	if err != nil {
		t.Fatalf("DecodeChanges: %v", err)
	}
	return r, n
}

func TestEncodeDecodeChangesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := codecCube(50, 10)
	for i := 0; i < 200; i++ {
		c.Add(Change{
			Time:     rng.Int63n(1 << 40),
			Entity:   EntityID(rng.Intn(50)),
			Property: PropertyID(rng.Intn(10)),
			Value:    string(rune('a' + rng.Intn(26))),
			Kind:     ChangeKind(rng.Intn(3)),
			Bot:      rng.Intn(4) == 0,
		})
	}
	buf := EncodeCubeChanges(c)
	want := c.Changes()
	got, n := decodeInto(t, c, buf)
	if n != len(want) || !reflect.DeepEqual(want, got.Changes()) {
		t.Fatalf("roundtrip mismatch: n=%d want %d", n, len(want))
	}
	// Deterministic: re-encoding the decoded changes is byte-identical.
	if string(EncodeCubeChanges(got)) != string(buf) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestDecodeChangesRejectsDamage(t *testing.T) {
	c := codecCube(2, 4)
	c.Add(Change{Time: 10, Entity: 1, Property: 2, Value: "abc", Kind: Update})
	c.Add(Change{Time: 20, Entity: 1, Property: 3, Value: "defg", Kind: Create, Bot: true})
	buf := EncodeCubeChanges(c)
	nop := func(Change) error { return nil }
	if _, err := DecodeChanges([]byte("XXXX"), nop); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeChanges(buf[:2], nop); err == nil {
		t.Fatal("short payload accepted")
	}
	// Every truncation of the body must error, never panic or succeed.
	for cut := len(changesMagic); cut < len(buf); cut++ {
		if _, err := DecodeChanges(buf[:cut], nop); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// An inflated count with no bytes behind it is rejected up front.
	inflated := append([]byte(changesMagic), 0xFF, 0xFF, 0xFF, 0xFF, 0x0F)
	if _, err := DecodeChanges(inflated, nop); err == nil {
		t.Fatal("inflated count accepted")
	}
}

// hugeValueLengthPayload encodes one change whose value length is 2^63+15: as
// an int it is negative, which once slipped past the bounds check and
// panicked slicing the payload.
func hugeValueLengthPayload() []byte {
	buf := binary.AppendUvarint([]byte(changesMagic), 1)
	buf = append(buf, 0, 0, 0, byte(Update)) // time delta, entity, property, kind
	buf = binary.AppendUvarint(buf, 1<<63+15)
	return append(buf, "value"...)
}

func TestDecodeChangesRejectsHugeValueLength(t *testing.T) {
	if _, err := DecodeChanges(hugeValueLengthPayload(), func(Change) error { return nil }); err == nil {
		t.Fatal("value length beyond the payload accepted")
	}
}

// TestRandomBatchesRoundTrip grows a cube batch by batch, each with a new
// entity, and decodes the whole encoding after every batch.
func TestRandomBatchesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cube := New()
	for i := 0; i < 6; i++ {
		cube.Properties.Intern(string(rune('a' + i)))
	}
	for batch := 0; batch < 8; batch++ {
		e := cube.AddEntityNamed("t", string(rune('A'+batch)))
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			cube.Add(Change{
				Time:     rng.Int63n(1 << 40),
				Entity:   e,
				Property: PropertyID(rng.Intn(6)),
				Value:    string(rune('x' + rng.Intn(3))),
				Kind:     ChangeKind(rng.Intn(3)),
			})
		}
		r, _ := decodeInto(t, cube, EncodeCubeChanges(cube))
		if !reflect.DeepEqual(cube.Changes(), r.Changes()) {
			t.Fatalf("batch %d: reload mismatch", batch)
		}
	}
}
