package epochstore

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/core"
	"github.com/wikistale/wikistale/internal/filter"
	"github.com/wikistale/wikistale/internal/ingest"
	"github.com/wikistale/wikistale/internal/obs"
)

// snapMagic and snapVersion head every snapshot file. The version byte is
// bumped on any incompatible payload change. Version 2 appends one
// length-prefixed opaque section after the histories — the quality
// scorer's serialized state — so alert-outcome scoring survives a
// restart; version-1 snapshots still decode (with an empty quality
// section), so a store written by the previous build boots cleanly.
const (
	snapMagic     = "WES1"
	snapVersion   = 2
	snapVersionV1 = 1
)

func snapName(seq uint64) string { return fmt.Sprintf("ep-%08d.snap", seq) }

// snapshotPayload is the content of a snapshot file: what encodeSnapshot
// writes and decodeSnapshot returns. A model epoch fills every part; a
// corpus file is a cube alone — empty model, no filter stages, no
// histories, sequential ordinals.
type snapshotPayload struct {
	model     []byte
	cube      *changecube.Cube
	ordinals  []int
	stats     filter.Stats
	histories []changecube.History
	// quality is the opaque quality-scorer state (empty in v1 snapshots
	// and when no scorer is wired).
	quality []byte
}

// epochPayload gathers a detector's parts for encodeSnapshot. The cube is
// cloned, because encoding sorts it and a detector serving from the
// original must never be disturbed.
func epochPayload(det *core.Detector, ordinals []int, quality []byte) (*snapshotPayload, error) {
	model, err := det.MarshalModel()
	if err != nil {
		return nil, fmt.Errorf("epochstore: marshaling model: %w", err)
	}
	return &snapshotPayload{
		model:     model,
		cube:      det.Histories().Cube().Clone(),
		ordinals:  ordinals,
		stats:     det.FilterStats(),
		histories: det.Histories().Histories(), // sorted by field (NewHistorySet)
		quality:   quality,
	}, nil
}

// encodeSnapshot serializes a payload: the model JSON, the three interned
// dictionaries, the entity table with infobox ordinals, the cube's
// changes in canonical order (changecube's change codec; the cube is
// sorted in place), the filter stages, the histories and the quality
// state. The canonical order makes the encoding deterministic for a
// given corpus regardless of arrival order.
func encodeSnapshot(p *snapshotPayload) ([]byte, error) {
	cube, ordinals := p.cube, p.ordinals
	if ordinals == nil {
		// No checkpoint ordinals (a snapshot outside the live loop, or a
		// corpus): first-seen sequential numbering, matching
		// NewStagingFromCube.
		ordinals = sequentialOrdinals(cube)
	}
	if len(ordinals) != cube.NumEntities() {
		return nil, fmt.Errorf("epochstore: %d ordinals for %d entities", len(ordinals), cube.NumEntities())
	}

	var buf []byte
	buf = append(buf, snapMagic...)
	buf = append(buf, snapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(p.model)))
	buf = append(buf, p.model...)
	for _, dict := range []*changecube.Dict{cube.Properties, cube.Templates, cube.Pages} {
		names := dict.Names()
		buf = binary.AppendUvarint(buf, uint64(len(names)))
		for _, name := range names {
			buf = binary.AppendUvarint(buf, uint64(len(name)))
			buf = append(buf, name...)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(cube.NumEntities()))
	for e := 0; e < cube.NumEntities(); e++ {
		info := cube.Entity(changecube.EntityID(e))
		buf = binary.AppendUvarint(buf, uint64(info.Template))
		buf = binary.AppendUvarint(buf, uint64(info.Page))
		buf = binary.AppendUvarint(buf, uint64(ordinals[e]))
	}
	changes := changecube.EncodeCubeChanges(cube)
	buf = binary.AppendUvarint(buf, uint64(len(changes)))
	buf = append(buf, changes...)

	// The derived serving state rides along so a load never has to
	// recompute it: the noise-funnel counters and every filtered history.
	// Re-running the filter over a million-change cube costs seconds; with
	// the histories persisted, boot builds the HistorySet straight off the
	// decoded cube and serves. (Stage durations are not kept — stats from
	// a staging buffer never have them anyway.)
	buf = binary.AppendUvarint(buf, uint64(len(p.stats.Stages)))
	for _, sg := range p.stats.Stages {
		buf = binary.AppendUvarint(buf, uint64(len(sg.Name)))
		buf = append(buf, sg.Name...)
		buf = binary.AppendUvarint(buf, uint64(sg.In))
		buf = binary.AppendUvarint(buf, uint64(sg.Out))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.histories)))
	for _, h := range p.histories {
		buf = binary.AppendUvarint(buf, uint64(h.Field.Entity))
		buf = binary.AppendUvarint(buf, uint64(h.Field.Property))
		buf = binary.AppendUvarint(buf, uint64(h.Len()))
		// Strictly increasing days: first day signed, then gaps (>= 1) —
		// the History packed representation verbatim.
		buf = h.AppendPackedDays(buf)
	}
	// v2: the quality scorer's opaque state, length-prefixed. The store
	// does not interpret it — the scorer's own magic/version live inside.
	buf = binary.AppendUvarint(buf, uint64(len(p.quality)))
	buf = append(buf, p.quality...)
	return buf, nil
}

// sequentialOrdinals numbers each entity among those sharing its
// (page, template) pair, in entity-id order.
func sequentialOrdinals(cube *changecube.Cube) []int {
	type pt struct {
		page     changecube.PageID
		template changecube.TemplateID
	}
	ords := make([]int, cube.NumEntities())
	next := make(map[pt]int)
	for e := 0; e < cube.NumEntities(); e++ {
		info := cube.Entity(changecube.EntityID(e))
		k := pt{info.Page, info.Template}
		ords[e] = next[k]
		next[k]++
	}
	return ords
}

// decodeSnapshot parses an encodeSnapshot payload, validating every
// reference before it reaches the cube (changecube.Cube.Add panics on
// unknown ids, so nothing may get there unchecked). Malformed input of
// any shape returns an error, never panics — the fuzz target's contract.
func decodeSnapshot(data []byte) (*snapshotPayload, error) {
	if len(data) < len(snapMagic)+1 || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("epochstore: snapshot: bad magic")
	}
	version := data[len(snapMagic)]
	if version != snapVersion && version != snapVersionV1 {
		return nil, fmt.Errorf("epochstore: snapshot version %d, this build reads %d", version, snapVersion)
	}
	r := &byteReader{data: data, pos: len(snapMagic) + 1}

	model, err := r.bytes("model")
	if err != nil {
		return nil, err
	}
	cube := changecube.New()
	for _, d := range []struct {
		name string
		dict *changecube.Dict
	}{{"properties", cube.Properties}, {"templates", cube.Templates}, {"pages", cube.Pages}} {
		count, err := r.count(d.name)
		if err != nil {
			return nil, err
		}
		for i := 0; i < count; i++ {
			raw, err := r.bytes(d.name + " entry")
			if err != nil {
				return nil, err
			}
			if id := d.dict.Intern(string(raw)); int(id) != i {
				return nil, fmt.Errorf("epochstore: snapshot: duplicate %s entry %q", d.name, raw)
			}
		}
	}
	entities, err := r.count("entities")
	if err != nil {
		return nil, err
	}
	ordinals := make([]int, 0, entities)
	for i := 0; i < entities; i++ {
		template, err := r.uvarint("entity template")
		if err != nil {
			return nil, err
		}
		page, err := r.uvarint("entity page")
		if err != nil {
			return nil, err
		}
		ord, err := r.uvarint("entity ordinal")
		if err != nil {
			return nil, err
		}
		if template >= uint64(cube.Templates.Len()) || page >= uint64(cube.Pages.Len()) {
			return nil, fmt.Errorf("epochstore: snapshot: entity %d references template %d / page %d out of range", i, template, page)
		}
		if ord >= uint64(entities) {
			return nil, fmt.Errorf("epochstore: snapshot: entity %d ordinal %d out of range", i, ord)
		}
		cube.AddEntity(changecube.TemplateID(template), changecube.PageID(page))
		ordinals = append(ordinals, int(ord))
	}
	changes, err := r.bytes("changes")
	if err != nil {
		return nil, err
	}
	nstages, err := r.count("stats stages")
	if err != nil {
		return nil, err
	}
	var stats filter.Stats
	for i := 0; i < nstages; i++ {
		name, err := r.bytes("stage name")
		if err != nil {
			return nil, err
		}
		in, err := r.uvarint("stage in")
		if err != nil {
			return nil, err
		}
		out, err := r.uvarint("stage out")
		if err != nil {
			return nil, err
		}
		stats.Stages = append(stats.Stages, filter.StageStats{Name: string(name), In: int(in), Out: int(out)})
	}
	nhist, err := r.count("histories")
	if err != nil {
		return nil, err
	}
	// The on-disk day encoding is the History packed representation, so
	// histories load without ever materializing day slices: scan each
	// field's bytes in place (validating), then re-home all of them into
	// one arena so the loaded epoch doesn't pin the snapshot buffer.
	type histSpan struct {
		field    changecube.FieldKey
		off, end int
		ndays    int
	}
	spans := make([]histSpan, 0, nhist)
	packedTotal := 0
	for i := 0; i < nhist; i++ {
		entity, err := r.uvarint("history entity")
		if err != nil {
			return nil, err
		}
		property, err := r.uvarint("history property")
		if err != nil {
			return nil, err
		}
		if entity >= uint64(entities) || property >= uint64(cube.Properties.Len()) {
			return nil, fmt.Errorf("epochstore: snapshot: history %d references entity %d / property %d out of range", i, entity, property)
		}
		ndays, err := r.count("history days")
		if err != nil {
			return nil, err
		}
		if ndays == 0 {
			return nil, fmt.Errorf("epochstore: snapshot: history %d is empty", i)
		}
		field := changecube.FieldKey{Entity: changecube.EntityID(entity), Property: changecube.PropertyID(property)}
		_, consumed, err := changecube.ScanPackedDays(field, data[r.pos:], ndays)
		if err != nil {
			return nil, fmt.Errorf("epochstore: snapshot: history %d: %w", i, err)
		}
		spans = append(spans, histSpan{field: field, off: r.pos, end: r.pos + consumed, ndays: ndays})
		r.pos += consumed
		packedTotal += consumed
	}
	arena := make([]byte, 0, packedTotal)
	histories := make([]changecube.History, 0, nhist)
	for _, sp := range spans {
		start := len(arena)
		arena = append(arena, data[sp.off:sp.end]...)
		h, err := changecube.NewHistoryPacked(sp.field, arena[start:len(arena):len(arena)], sp.ndays)
		if err != nil {
			return nil, fmt.Errorf("epochstore: snapshot: history %v: %w", sp.field, err)
		}
		histories = append(histories, h)
	}
	var qualityState []byte
	if version >= snapVersion {
		qualityState, err = r.bytes("quality state")
		if err != nil {
			return nil, err
		}
		// Copy out of the snapshot buffer so the payload doesn't pin it.
		qualityState = append([]byte(nil), qualityState...)
	}
	if r.pos != len(data) {
		return nil, fmt.Errorf("epochstore: snapshot: %d trailing bytes", len(data)-r.pos)
	}
	_, err = changecube.DecodeChanges(changes, func(ch changecube.Change) error {
		if int(ch.Entity) >= cube.NumEntities() || ch.Entity < 0 {
			return fmt.Errorf("entity %d out of range", ch.Entity)
		}
		if int(ch.Property) >= cube.Properties.Len() || ch.Property < 0 {
			return fmt.Errorf("property %d out of range", ch.Property)
		}
		if ch.Kind > changecube.Delete {
			return fmt.Errorf("invalid change kind %d", uint8(ch.Kind))
		}
		cube.Add(ch)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &snapshotPayload{model: model, cube: cube, ordinals: ordinals, stats: stats, histories: histories, quality: qualityState}, nil
}

// byteReader walks a snapshot payload with bounds errors instead of
// panics.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) ReadByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("epochstore: snapshot: unexpected end of payload")
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("epochstore: snapshot: %s: truncated", what)
	}
	return v, nil
}

// count reads a uvarint bounded by the remaining payload size — every
// counted item needs at least one byte, so larger counts are lies.
func (r *byteReader) count(what string) (int, error) {
	v, err := r.uvarint(what)
	if err != nil {
		return 0, err
	}
	if v > uint64(len(r.data)-r.pos) {
		return 0, fmt.Errorf("epochstore: snapshot: %s count %d exceeds payload", what, v)
	}
	return int(v), nil
}

// bytes reads a length-prefixed byte run.
func (r *byteReader) bytes(what string) ([]byte, error) {
	n, err := r.count(what)
	if err != nil {
		return nil, err
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

// Snapshot commits one epoch: the detector's model and training cube plus
// the feed checkpoint captured with them. It runs the write-temp + fsync +
// rename + dir-fsync + log-append protocol, then applies retention. Safe
// to call from the manager's post-swap hook (it runs on the retrain
// goroutine, off the ingest and serving hot paths).
func (s *Store) Snapshot(ctx context.Context, det *core.Detector, cp ingest.Checkpoint) (Record, error) {
	_, span := obs.StartSpanCtx(ctx, "epochstore/snapshot")
	defer span.End()
	start := time.Now()
	rec, err := s.snapshot(det, cp)
	elapsed := time.Since(start)
	s.mu.Lock()
	s.lastSnapshotSecs = elapsed.Seconds()
	if err != nil {
		s.errorCount++
	} else {
		s.snapshotCount++
	}
	s.mu.Unlock()
	if err != nil {
		s.snapshotErrors.Inc()
		s.logError("epoch snapshot failed", err)
		return Record{}, err
	}
	s.snapshots.Inc()
	s.snapshotBytes.Observe(float64(rec.Bytes))
	s.snapshotSecs.Observe(elapsed.Seconds())
	s.logger.Info("epoch snapshot committed",
		"seq", rec.Seq, "file", rec.File, "bytes", rec.Bytes,
		"changes", rec.Changes, "elapsed", elapsed)
	return rec, nil
}

func (s *Store) snapshot(det *core.Detector, cp ingest.Checkpoint) (Record, error) {
	var qual []byte
	if src := s.qualitySource; src != nil {
		qual = src()
	}
	parts, err := epochPayload(det, cp.Ordinals, qual)
	if err != nil {
		return Record{}, err
	}
	payload, err := encodeSnapshot(parts)
	if err != nil {
		return Record{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	name := snapName(seq)
	path := filepath.Join(s.dir, name)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return Record{}, fmt.Errorf("epochstore: %w", err)
	}
	if _, err := f.Write(payload); err != nil {
		f.Close()
		return Record{}, fmt.Errorf("epochstore: %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return Record{}, fmt.Errorf("epochstore: %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return Record{}, fmt.Errorf("epochstore: %s: %w", name, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return Record{}, fmt.Errorf("epochstore: %s: %w", name, err)
	}
	if err := syncDir(s.dir); err != nil {
		return Record{}, fmt.Errorf("epochstore: %s: %w", name, err)
	}
	cube := det.Histories().Cube()
	rec := Record{
		Seq:        seq,
		File:       name,
		Bytes:      int64(len(payload)),
		CRC32:      crc32.ChecksumIEEE(payload),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Checkpoint: cp.Pos,
		Properties: cube.Properties.Len(),
		Templates:  cube.Templates.Len(),
		Pages:      cube.Pages.Len(),
		Entities:   cube.NumEntities(),
		Changes:    cube.NumChanges(),
		Fields:     det.Histories().Len(),
	}
	if err := s.appendRecord(rec); err != nil {
		return Record{}, err
	}
	s.nextSeq = seq + 1
	s.gcLocked()
	return rec, nil
}

// LoadResult is the outcome of a boot-from-store attempt.
type LoadResult struct {
	// Outcome is "latest" (newest epoch loaded), "fallback" (an older
	// epoch loaded past corrupt newer ones), or "cold" (nothing loadable;
	// Detector is nil).
	Outcome string
	// Record is the loaded epoch (zero when cold).
	Record Record
	// Detector is ready to serve.
	Detector *core.Detector
	// Checkpoint is where the feed should resume.
	Checkpoint ingest.SourcePosition
	// Errors describes each record that failed to load, newest first.
	Errors []string
	// Seconds is the wall time of the successful load.
	Seconds float64
	// Quality is the opaque quality-scorer state persisted with the
	// epoch (nil for v1 snapshots or when no scorer was wired at
	// snapshot time). cmd/staleserve restores it into the scorer.
	Quality []byte

	cfg      core.Config
	ordinals []int

	stagingOnce sync.Once
	staging     *ingest.Staging
	stagingErr  error
}

// Staging reconstructs the mutable ingestion buffer for the loaded epoch,
// its cursor primed at Checkpoint. The rebuild re-runs the per-field noise
// filter over the whole corpus — orders of magnitude slower than the load
// itself — which is why it is NOT part of LoadLatest: only the feed needs
// a staging buffer, and the feed can afford to build it in the background
// while the Detector already serves. Concurrent callers share one rebuild;
// a cold result returns an error.
func (r *LoadResult) Staging() (*ingest.Staging, error) {
	r.stagingOnce.Do(func() {
		if r.Detector == nil {
			r.stagingErr = fmt.Errorf("epochstore: cold load result has no staging")
			return
		}
		// NewStagingFromCubeAt clones the cube, so the detector's frozen
		// HistorySet is never disturbed by later appends.
		r.staging, r.stagingErr = ingest.NewStagingFromCubeAt(
			r.Detector.Histories().Cube(), r.cfg.Filter, r.ordinals, r.Checkpoint)
	})
	return r.staging, r.stagingErr
}

// LoadLatest walks the epoch log newest-first and reconstructs the first
// epoch that checks out: file present, size and CRC-32 matching the
// record, payload decoding cleanly, dictionary sizes agreeing, and the
// model reconstructing against the refiltered corpus. Records that fail
// any step are skipped (the recovery ladder); a store with no loadable
// epoch returns Outcome "cold" and no error.
func (s *Store) LoadLatest(ctx context.Context, cfg core.Config) (*LoadResult, error) {
	_, span := obs.StartSpanCtx(ctx, "epochstore/load")
	defer span.End()
	s.mu.Lock()
	records := append([]Record(nil), s.records...)
	s.mu.Unlock()

	res := &LoadResult{Outcome: "cold", cfg: cfg}
	for i := len(records) - 1; i >= 0; i-- {
		rec := records[i]
		start := time.Now()
		det, ordinals, qual, err := s.loadRecord(rec, cfg)
		if err != nil {
			res.Errors = append(res.Errors, fmt.Sprintf("epoch %d (%s): %v", rec.Seq, rec.File, err))
			s.logError(fmt.Sprintf("epoch %d unloadable, falling back", rec.Seq), err)
			continue
		}
		res.Seconds = time.Since(start).Seconds()
		res.Record = rec
		res.Detector = det
		res.ordinals = ordinals
		res.Quality = qual
		res.Checkpoint = rec.Checkpoint
		if i == len(records)-1 {
			res.Outcome = "latest"
		} else {
			res.Outcome = "fallback"
		}
		s.loadSecs.Observe(res.Seconds)
		s.lastLoadSecs.Set(res.Seconds)
		s.mu.Lock()
		s.lastLoadSeconds = res.Seconds
		s.mu.Unlock()
		s.logger.Info("epoch loaded from store",
			"seq", rec.Seq, "outcome", res.Outcome,
			"changes", rec.Changes, "fields", rec.Fields,
			"load_seconds", res.Seconds)
		return res, nil
	}
	return res, nil
}

// loadRecord reconstructs one epoch's serving state. The HistorySet is
// built straight from the decoded cube and the persisted histories — no
// clone, no filter re-run — which is what keeps the boot path at
// read-decode speed even for million-change corpora.
func (s *Store) loadRecord(rec Record, cfg core.Config) (*core.Detector, []int, []byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, rec.File))
	if err != nil {
		return nil, nil, nil, err
	}
	if int64(len(data)) != rec.Bytes {
		return nil, nil, nil, fmt.Errorf("%d bytes, record says %d", len(data), rec.Bytes)
	}
	if crc := crc32.ChecksumIEEE(data); crc != rec.CRC32 {
		return nil, nil, nil, fmt.Errorf("checksum %08x, record says %08x", crc, rec.CRC32)
	}
	payload, err := decodeSnapshot(data)
	if err != nil {
		return nil, nil, nil, err
	}
	cube := payload.cube
	if cube.Properties.Len() != rec.Properties || cube.Templates.Len() != rec.Templates ||
		cube.Pages.Len() != rec.Pages || cube.NumEntities() != rec.Entities ||
		cube.NumChanges() != rec.Changes {
		return nil, nil, nil, fmt.Errorf("decoded sizes disagree with record (%d/%d/%d/%d/%d vs %d/%d/%d/%d/%d)",
			cube.Properties.Len(), cube.Templates.Len(), cube.Pages.Len(), cube.NumEntities(), cube.NumChanges(),
			rec.Properties, rec.Templates, rec.Pages, rec.Entities, rec.Changes)
	}
	if len(payload.histories) != rec.Fields {
		return nil, nil, nil, fmt.Errorf("%d histories decoded, record says %d", len(payload.histories), rec.Fields)
	}
	hs, err := changecube.NewHistorySet(cube, payload.histories)
	if err != nil {
		return nil, nil, nil, err
	}
	det, err := core.LoadModelBytes(hs, payload.stats, cfg, payload.model)
	if err != nil {
		return nil, nil, nil, err
	}
	return det, payload.ordinals, payload.quality, nil
}
