package changecube

import "fmt"

// Dict interns strings as dense int32 identifiers. The change cube stores
// millions of changes; interning property names, template names and page
// titles keeps Change values fixed-size and comparisons cheap.
type Dict struct {
	names []string
	index map[string]int32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{index: make(map[string]int32)}
}

// Intern returns the identifier for name, assigning the next free one on
// first sight.
func (d *Dict) Intern(name string) int32 {
	if id, ok := d.index[name]; ok {
		return id
	}
	id := int32(len(d.names))
	d.names = append(d.names, name)
	d.index[name] = id
	return id
}

// Lookup returns the identifier for name and whether it is known.
func (d *Dict) Lookup(name string) (int32, bool) {
	id, ok := d.index[name]
	return id, ok
}

// Name returns the string for id. It panics on an unknown identifier, which
// always indicates a programming error (ids only come from Intern).
func (d *Dict) Name(id int32) string {
	if id < 0 || int(id) >= len(d.names) {
		panic(fmt.Sprintf("changecube: unknown dictionary id %d (size %d)", id, len(d.names)))
	}
	return d.names[id]
}

// Len returns the number of interned strings.
func (d *Dict) Len() int { return len(d.names) }

// Clone returns an independent copy of the dictionary.
func (d *Dict) Clone() *Dict {
	out := &Dict{
		names: append([]string(nil), d.names...),
		index: make(map[string]int32, len(d.index)),
	}
	for name, id := range d.index {
		out.index[name] = id
	}
	return out
}

// Names returns the interned strings in id order. The returned slice is the
// dictionary's backing storage and must not be modified.
func (d *Dict) Names() []string { return d.names }
