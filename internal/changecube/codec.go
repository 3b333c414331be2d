package changecube

import (
	"encoding/binary"
	"fmt"
	"io"
)

// changesMagic heads an encoded change payload.
const changesMagic = "WCS1"

// botFlag marks a bot edit in the encoded kind byte.
const botFlag = 0x80

// EncodeCubeChanges serializes a cube's changes in canonical order (the
// cube is sorted first): a "WCS1" magic, a uvarint count, then per change
// a varint time delta, uvarint entity and property IDs, a kind byte with
// the bot flag in bit 7, and a length-prefixed value. The changes are
// streamed straight off the packed storage, so the list is never
// materialized; the canonical order makes the bytes a fingerprint of the
// cube's changes regardless of arrival order.
func EncodeCubeChanges(cube *Cube) []byte {
	cube.Sort()
	buf := append([]byte(nil), changesMagic...)
	buf = binary.AppendUvarint(buf, uint64(cube.NumChanges()))
	prev := int64(0)
	cube.EachChange(func(_ int, ch Change) bool {
		buf = binary.AppendVarint(buf, ch.Time-prev)
		prev = ch.Time
		buf = binary.AppendUvarint(buf, uint64(ch.Entity))
		buf = binary.AppendUvarint(buf, uint64(ch.Property))
		kind := byte(ch.Kind)
		if ch.Bot {
			kind |= botFlag
		}
		buf = append(buf, kind)
		buf = binary.AppendUvarint(buf, uint64(len(ch.Value)))
		buf = append(buf, ch.Value...)
		return true
	})
	return buf
}

// DecodeChanges parses an EncodeCubeChanges payload, passing each change
// to apply in encoded order and returning the record count. It never
// panics on malformed input: structural damage surfaces as an error, and
// apply is responsible for validating IDs against its own dictionaries
// before inserting into a cube (Cube.Add panics on unknown refs).
func DecodeChanges(data []byte, apply func(Change) error) (int, error) {
	if len(data) < len(changesMagic) || string(data[:len(changesMagic)]) != changesMagic {
		return 0, fmt.Errorf("changecube: changes payload: bad magic")
	}
	r := &sliceReader{data: data[len(changesMagic):]}
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("changecube: changes payload: %w", err)
	}
	if count > uint64(len(r.data)) {
		// Each change needs at least one byte; reject inflated counts
		// before apply sees them.
		return 0, fmt.Errorf("changecube: changes payload: count %d exceeds payload size", count)
	}
	prev := int64(0)
	for i := uint64(0); i < count; i++ {
		dt, err := binary.ReadVarint(r)
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		prev += dt
		entity, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		prop, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		kind, err := r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		vlen, err := binary.ReadUvarint(r)
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		value, err := r.take(vlen)
		if err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
		ch := Change{
			Time:     prev,
			Entity:   EntityID(entity),
			Property: PropertyID(prop),
			Value:    value,
			Kind:     ChangeKind(kind &^ botFlag),
			Bot:      kind&botFlag != 0,
		}
		if err := apply(ch); err != nil {
			return 0, fmt.Errorf("changecube: change %d: %w", i, err)
		}
	}
	return int(count), nil
}

// sliceReader is a minimal io.ByteReader over a byte slice with bounds
// errors instead of panics.
type sliceReader struct {
	data []byte
	pos  int
}

func (r *sliceReader) ReadByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, io.ErrUnexpectedEOF
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

// take returns the next n bytes as a string. n is compared as a uint64:
// a length of 2^63 or more would turn negative as an int and slip past
// the check.
func (r *sliceReader) take(n uint64) (string, error) {
	if n > uint64(len(r.data)-r.pos) {
		return "", io.ErrUnexpectedEOF
	}
	v := string(r.data[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return v, nil
}
