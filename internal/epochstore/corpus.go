package epochstore

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"github.com/wikistale/wikistale/internal/changecube"
)

// WriteCorpus writes cube as a corpus file: a snapshot with an empty
// model, no filter stages, no histories and sequential ordinals. The cube
// is sorted in place into its canonical change order.
func WriteCorpus(w io.Writer, cube *changecube.Cube) error {
	data, err := encodeSnapshot(&snapshotPayload{cube: cube})
	if err != nil {
		return err
	}
	_, err = w.Write(data)
	return err
}

// ReadCorpus reads the change cube of a snapshot file: a corpus written
// by WriteCorpus, or a full epoch, whose model and histories it ignores.
func ReadCorpus(path string) (*changecube.Cube, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(snapMagic)) {
		// Most likely a corpus written before snapshots were the only
		// format: name it rather than report bad magic.
		return nil, fmt.Errorf("epochstore: %s is not a snapshot (magic %q); corpus files in the retired binary change-cube format (.wcc) are no longer read, regenerate them with wikigen or infoboxdump",
			path, data[:min(len(data), len(snapMagic))])
	}
	p, err := decodeSnapshot(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p.cube, nil
}
