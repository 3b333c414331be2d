package changecube

import (
	"bufio"
	"encoding/json"
	"io"
)

// JSONChange is the JSON-lines interchange record for one change, with the
// string dimensions resolved.
type JSONChange struct {
	Time     int64  `json:"time"`
	Page     string `json:"page"`
	Template string `json:"template"`
	Entity   int32  `json:"entity"`
	Property string `json:"property"`
	Value    string `json:"value,omitempty"`
	Kind     string `json:"kind"`
	Bot      bool   `json:"bot,omitempty"`
}

// WriteJSONL writes the cube as one JSON object per change, resolving the
// interned dimensions to strings.
func (c *Cube) WriteJSONL(w io.Writer) error {
	c.Sort()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var encErr error
	c.EachChange(func(_ int, ch Change) bool {
		info := c.entities[ch.Entity]
		rec := JSONChange{
			Time:     ch.Time,
			Page:     c.Pages.Name(int32(info.Page)),
			Template: c.Templates.Name(int32(info.Template)),
			Entity:   int32(ch.Entity),
			Property: c.Properties.Name(int32(ch.Property)),
			Value:    ch.Value,
			Kind:     ch.Kind.String(),
			Bot:      ch.Bot,
		}
		if err := enc.Encode(rec); err != nil {
			encErr = err
			return false
		}
		return true
	})
	if encErr != nil {
		return encErr
	}
	return bw.Flush()
}
