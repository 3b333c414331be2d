package dataset

import (
	"bytes"
	"errors"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
)

// TestStreamMatchesGenerate: the streamed corpus, fed through the same
// arrival-order sink Generate uses, must be bit-identical to the batch
// corpus — same events, same interned IDs, same encoded bytes. This is
// the contract that lets a paper-scale feed skip materializing the cube.
func TestStreamMatchesGenerate(t *testing.T) {
	cfg := Small()
	batchCube, _, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	sink := newCubeSink()
	batches, events, maxBatch := 0, 0, 0
	err = Stream(cfg, func(evs []Event) error {
		batches++
		events += len(evs)
		if len(evs) > maxBatch {
			maxBatch = len(evs)
		}
		return sink.add(evs)
	})
	if err != nil {
		t.Fatal(err)
	}

	if events != batchCube.NumChanges() {
		t.Fatalf("streamed %d events, batch generated %d changes", events, batchCube.NumChanges())
	}
	if batches < 100 {
		t.Fatalf("only %d batches — streaming should deliver one entity at a time", batches)
	}
	if maxBatch >= events/4 {
		t.Fatalf("largest batch holds %d of %d events; batches must stay entity-sized", maxBatch, events)
	}

	want := changecube.EncodeCubeChanges(batchCube)
	got := changecube.EncodeCubeChanges(sink.cube)
	if !bytes.Equal(want, got) {
		t.Fatalf("streamed corpus differs from batch corpus: %d vs %d encoded bytes", len(got), len(want))
	}
	if sink.cube.NumEntities() != batchCube.NumEntities() {
		t.Fatalf("entities: %d streamed vs %d batch", sink.cube.NumEntities(), batchCube.NumEntities())
	}
}

// TestStreamFlushErrorAborts: a consumer error stops generation promptly
// and surfaces as Stream's return value.
func TestStreamFlushErrorAborts(t *testing.T) {
	sentinel := errors.New("sink full")
	calls := 0
	err := Stream(Small(), func([]Event) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the sink's error", err)
	}
	if calls != 3 {
		t.Fatalf("flush called %d times after the error, want exactly 3", calls)
	}
}

// TestStreamRejectsBadConfig mirrors Generate's validation.
func TestStreamRejectsBadConfig(t *testing.T) {
	cfg := Small()
	cfg.NumTemplates = 0
	if err := Stream(cfg, func([]Event) error { return nil }); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestScaled: the scale knob multiplies template count and nothing else.
func TestScaled(t *testing.T) {
	base := Default()
	scaled := base.Scaled(8)
	if scaled.NumTemplates != 8*base.NumTemplates {
		t.Fatalf("NumTemplates = %d, want %d", scaled.NumTemplates, 8*base.NumTemplates)
	}
	scaled.NumTemplates = base.NumTemplates
	if scaled != base {
		t.Fatal("Scaled changed more than the template count")
	}
	if got := base.Scaled(0); got != base {
		t.Fatal("Scaled(0) must be a no-op")
	}
	if got := base.Scaled(1); got != base {
		t.Fatal("Scaled(1) must be a no-op")
	}
}

// TestScaledGrowsLinearly: generation at scale k must produce roughly k
// times the changes — templates are independent, so growth is horizontal.
func TestScaledGrowsLinearly(t *testing.T) {
	count := func(cfg Config) int {
		n := 0
		if err := Stream(cfg, func(evs []Event) error { n += len(evs); return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	base := count(Small())
	scaled := count(Small().Scaled(2))
	if scaled < base+base/2 {
		t.Fatalf("scale 2 yields %d changes vs %d at scale 1 — not growing", scaled, base)
	}
}
