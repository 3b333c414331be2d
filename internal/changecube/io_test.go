package changecube

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteJSONL(t *testing.T) {
	c, _ := buildTestCube()
	var buf bytes.Buffer
	if err := c.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != c.NumChanges() {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), c.NumChanges())
	}
	if !strings.Contains(lines[0], `"kind":"create"`) {
		t.Errorf("first line should be the create change: %s", lines[0])
	}
	if !strings.Contains(lines[0], `"page":"London"`) {
		t.Errorf("page name not resolved: %s", lines[0])
	}
}
