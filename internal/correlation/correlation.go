// Package correlation implements the paper's field-correlation predictor
// (§3.2): two fields of the same page are correlated when the normalized
// Manhattan distance between their daily change vectors falls below an
// error threshold θ. A field covered by at least one correlation rule is
// predicted to change in a window whenever a correlated partner changed in
// that window.
//
// Training is the fast path described in DESIGN.md §10: per-field day
// slices are hoisted out of the pair loop, and under the overlap norm the
// quadratic pairwise search is pruned with a day→field inverted index —
// two fields sharing no change day (within the tolerance) have distance
// exactly 1 and can never clear θ ∈ (0, 1], so only co-changing pairs are
// visited. Pages run in parallel on the process-wide training budget
// (internal/par); incremental retraining (incremental.go) additionally
// reuses untouched pages' rules.
package correlation

import (
	"fmt"
	"log"
	"sort"
	"sync/atomic"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/obs"
	"github.com/wikistale/wikistale/internal/par"
	"github.com/wikistale/wikistale/internal/predict"
	"github.com/wikistale/wikistale/internal/timeline"
)

// Norm selects the distance normalization (see DESIGN.md §3.1).
type Norm int

const (
	// NormOverlap normalizes the Manhattan distance by the total change
	// mass Σ(aᵢ+bᵢ), realizing the paper's stated endpoints: 0 for fields
	// that always change together, 1 for fields with no overlapping
	// changes. This is the default.
	NormOverlap Norm = iota
	// NormLength normalizes by the vector length k (the number of training
	// days) — the paper's literal wording, kept for the ablation study.
	NormLength
)

// String names the normalization.
func (n Norm) String() string {
	switch n {
	case NormOverlap:
		return "overlap"
	case NormLength:
		return "length"
	default:
		return fmt.Sprintf("Norm(%d)", int(n))
	}
}

// Config tunes training.
type Config struct {
	// Theta is the error threshold θ: pairs with distance < Theta become a
	// correlation rule. The paper's grid search selects 0.1.
	Theta float64
	// Norm selects the distance normalization.
	Norm Norm
	// MaxFieldsPerPage skips pages with more fields than this to bound the
	// quadratic pairwise search (0 means no bound). The paper bounds the
	// search by restricting it to single pages; a handful of generated
	// list-like pages can still be large. Skipped pages are counted in the
	// wikistale_train_pages_skipped_total metric and logged per training
	// run.
	MaxFieldsPerPage int
	// ToleranceDays loosens the co-change matching: two changes count as
	// simultaneous when at most this many days apart. The paper reports
	// trying such delayed-update periods and finding that same-day (0)
	// worked best; the knob is kept for that ablation.
	ToleranceDays int
	// MinSpanChanges excludes fields with fewer change days inside the
	// training span from the pairwise search. This is the paper's §5.1
	// eligibility rule applied per timeframe ("all datasets contain all
	// fields that have at least five changes within their timeframe"):
	// a field born days before the training cutoff has a one- or
	// two-entry change vector, and on a property-rich page such vectors
	// collide into spurious zero-distance rules.
	MinSpanChanges int
}

// Default returns the paper's configuration (θ = 0.1, five changes within
// the training timeframe).
func Default() Config {
	return Config{Theta: 0.1, Norm: NormOverlap, MinSpanChanges: 5}
}

// validate checks the training configuration.
func (c Config) validate() error {
	if c.Theta <= 0 || c.Theta > 1 {
		return fmt.Errorf("correlation: Theta %v out of (0,1]", c.Theta)
	}
	if c.ToleranceDays < 0 {
		return fmt.Errorf("correlation: negative ToleranceDays %d", c.ToleranceDays)
	}
	if c.MinSpanChanges < 0 {
		return fmt.Errorf("correlation: negative MinSpanChanges %d", c.MinSpanChanges)
	}
	return nil
}

// Rule is a symmetric field-correlation rule A ∼ B.
type Rule struct {
	A, B     changecube.FieldKey
	Distance float64
}

// Predictor holds the learned correlation rules.
type Predictor struct {
	rules []Rule
	// partners indexes each field's rules from that field's point of view,
	// keeping the learned distance so the explain path can report how far
	// below θ a fired rule was.
	partners map[changecube.FieldKey][]partnerRule
}

// partnerRule is one correlation rule seen from one of its two fields.
type partnerRule struct {
	field    changecube.FieldKey
	distance float64
}

var _ predict.Predictor = (*Predictor)(nil)

// Distance computes the normalized Manhattan distance between two change
// histories over the training span. Change vectors are binary per day
// (the filter pipeline leaves at most one change per field-day), so the
// Manhattan distance equals the size of the symmetric difference of the
// day sets.
func Distance(a, b changecube.History, span timeline.Span, norm Norm) float64 {
	return DistanceTolerant(a, b, span, norm, 0)
}

// DistanceTolerant is Distance with delayed-update slack: change days at
// most tolDays apart count as co-changes. tolDays = 0 is the paper's
// same-day matching.
func DistanceTolerant(a, b changecube.History, span timeline.Span, norm Norm, tolDays int) float64 {
	return distanceDays(a.In(span), b.In(span), span.Len(), norm, tolDays)
}

// distanceDays is the distance over already-sliced in-span day lists, so
// the training loop can hoist the History.In binary searches out of the
// pair loop.
func distanceDays(da, db []timeline.Day, spanLen int, norm Norm, tolDays int) float64 {
	matched := matchCount(da, db, timeline.Day(tolDays))
	sym := len(da) + len(db) - 2*matched
	switch norm {
	case NormOverlap:
		total := len(da) + len(db)
		if total == 0 {
			// Two fields with no changes in the span carry no evidence;
			// treat them as uncorrelated.
			return 1
		}
		return float64(sym) / float64(total)
	case NormLength:
		if spanLen == 0 {
			return 1
		}
		return float64(sym) / float64(spanLen)
	default:
		panic(fmt.Sprintf("correlation: unknown norm %d", norm))
	}
}

// matchCount greedily pairs days of a and b that are at most tol apart.
// Both inputs are strictly increasing; on a line the greedy two-pointer
// matching is maximal.
func matchCount(a, b []timeline.Day, tol timeline.Day) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		d := a[i] - b[j]
		if d < 0 {
			d = -d
		}
		if d <= tol {
			n++
			i++
			j++
			continue
		}
		if a[i] < b[j] {
			i++
		} else {
			j++
		}
	}
	return n
}

// Train discovers correlation rules between fields of the same page, using
// the change days inside span. The returned predictor is immutable.
func Train(hs *changecube.HistorySet, span timeline.Span, cfg Config) (*Predictor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := searchPages(hs, span, cfg, nil, nil)
	return newPredictor(res.rules), nil
}

// searchResult is the outcome of one page sweep.
type searchResult struct {
	rules         []Rule
	pagesTotal    int
	pagesReused   int
	pagesSearched int
	pagesSkipped  int
}

// searchPages runs the per-page pairwise search as one par.For loop with
// one page per chunk, so page-size skew cannot idle a goroutine. When dirty
// is non-nil, pages it reports clean take their rules from prevByPage
// instead of being searched — the incremental path; callers guarantee the
// reuse is sound. Results land in page order, so the output is
// deterministic regardless of scheduling.
func searchPages(hs *changecube.HistorySet, span timeline.Span, cfg Config,
	dirty func(changecube.PageID) bool, prevByPage map[changecube.PageID][]Rule) searchResult {
	histories := hs.Histories()
	byPage := hs.ByPage()
	pages := make([]changecube.PageID, 0, len(byPage))
	for page := range byPage {
		pages = append(pages, page)
	}
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })

	tspan := obs.StartSpan("train/correlation_search")
	perPage := make([][]Rule, len(pages))
	res := searchResult{pagesTotal: len(pages)}
	search := make([]int, 0, len(pages))
	for i, page := range pages {
		if dirty != nil && !dirty(page) {
			perPage[i] = prevByPage[page]
			res.pagesReused++
			continue
		}
		search = append(search, i)
	}
	res.pagesSearched = len(search)
	var skipped atomic.Int64
	par.For(len(search), 1, func() func(int) {
		var s pageScratch
		return func(k int) {
			i := search[k]
			rules, skip := pageRules(&s, histories, byPage[pages[i]], span, cfg)
			if skip {
				skipped.Add(1)
			}
			perPage[i] = rules
		}
	})
	tspan.End()

	res.pagesSkipped = int(skipped.Load())
	if res.pagesSkipped > 0 {
		obs.Default.Counter(obs.PagesSkippedTotal, obs.Labels{"predictor": "correlation"}).
			Add(uint64(res.pagesSkipped))
		log.Printf("correlation: skipped %d of %d pages exceeding MaxFieldsPerPage=%d; their fields get no rules",
			res.pagesSkipped, len(pages), cfg.MaxFieldsPerPage)
	}
	n := 0
	for _, rules := range perPage {
		n += len(rules)
	}
	if n == 0 {
		return res
	}
	res.rules = make([]Rule, 0, n)
	for _, rules := range perPage {
		res.rules = append(res.rules, rules...)
	}
	return res
}

// maxDenseSpanDays bounds the span length for which the inverted index
// uses a span-indexed array (one slice header per day, reused across a
// worker's pages). Realistic training spans are a few thousand days;
// anything beyond the bound is synthetic and takes the plain quadratic
// search, which is always correct.
const maxDenseSpanDays = 1 << 18

// pageScratch is a worker's reusable search state: the span-indexed
// day→field buckets, the per-field co-change counters and the eligibility
// slices all survive from page to page, so the steady-state search
// allocates only the rule slices it returns.
type pageScratch struct {
	buckets  [][]int32 // day (relative to span.Start) → eligible fields changed that day
	usedDays []int32   // indices of non-empty buckets, for O(used) reset
	fields   []changecube.FieldKey
	days     [][]timeline.Day
	cnt      []int32 // co-change count per field for the current x (tol == 0)
	touched  []int32 // fields with cnt > 0, in first-co-change order
	stamp    []int64 // generation stamps marking visited pairs (tol > 0)
	gen      int64
}

// pageRules runs the pairwise search for one page, reporting whether the
// page was skipped by the MaxFieldsPerPage bound. Day slices are computed
// once per field; under the overlap norm only pairs sharing at least one
// change day (within the tolerance) are visited — any other pair has
// distance exactly 1 ≥ θ and cannot become a rule. With same-day matching
// (the default) the matched-day count of a candidate pair is exactly its
// co-change count, so distances fall out of the bucket sweep itself and no
// per-pair day merge runs at all.
func pageRules(s *pageScratch, histories []changecube.History, pageIndices []int, span timeline.Span, cfg Config) ([]Rule, bool) {
	// Per-timeframe eligibility: only fields with enough in-span changes
	// participate. The day slices are the hoisted History.In results.
	fields, days := s.fields[:0], s.days[:0]
	for _, i := range pageIndices {
		d := histories[i].In(span)
		if len(d) >= cfg.MinSpanChanges {
			fields = append(fields, histories[i].Field)
			days = append(days, d)
		}
	}
	s.fields, s.days = fields, days
	if cfg.MaxFieldsPerPage > 0 && len(fields) > cfg.MaxFieldsPerPage {
		return nil, true
	}
	var rules []Rule
	emit := func(x, y int) {
		d := distanceDays(days[x], days[y], span.Len(), cfg.Norm, cfg.ToleranceDays)
		if d < cfg.Theta {
			rules = append(rules, Rule{A: fields[x], B: fields[y], Distance: d})
		}
	}
	if cfg.Norm != NormOverlap || span.Len() > maxDenseSpanDays {
		// NormLength admits rules between disjoint (even changeless) pairs,
		// so the co-change prune is unsound there; fall back to the full
		// quadratic search over the hoisted slices.
		for x := 0; x < len(fields); x++ {
			for y := x + 1; y < len(fields); y++ {
				emit(x, y)
			}
		}
		return rules, false
	}
	// Overlap norm: distance < θ ≤ 1 requires at least one matched day
	// pair, so candidate pairs are exactly those sharing a change day
	// within ToleranceDays. Invert days into a day→fields index and visit
	// only co-changing pairs.
	if len(s.buckets) < span.Len() {
		s.buckets = make([][]int32, span.Len())
	}
	if len(s.cnt) < len(fields) {
		s.cnt = make([]int32, len(fields))
		s.stamp = make([]int64, len(fields))
	}
	for x, dx := range days {
		for _, d := range dx {
			rel := int(d - span.Start)
			if len(s.buckets[rel]) == 0 {
				s.usedDays = append(s.usedDays, int32(rel))
			}
			s.buckets[rel] = append(s.buckets[rel], int32(x))
		}
	}
	if cfg.ToleranceDays == 0 {
		// Same-day matching: day sets are duplicate-free, so the maximal
		// matching between two fields is their day-set intersection, whose
		// size is the number of buckets holding both — counted directly
		// while sweeping x's buckets. The distance then needs no day merge:
		// |sym diff| = lx + ly − 2·matched over total mass lx + ly.
		for x := range fields {
			lx := len(days[x])
			touched := s.touched[:0]
			for _, d := range days[x] {
				for _, y := range s.buckets[int(d-span.Start)] {
					if int(y) <= x {
						continue
					}
					if s.cnt[y] == 0 {
						touched = append(touched, y)
					}
					s.cnt[y]++
				}
			}
			for _, y := range touched {
				matched := int(s.cnt[y])
				s.cnt[y] = 0
				total := lx + len(days[y])
				if d := float64(total-2*matched) / float64(total); d < cfg.Theta {
					rules = append(rules, Rule{A: fields[x], B: fields[y], Distance: d})
				}
			}
			s.touched = touched
		}
	} else {
		// Delayed-update matching: a shared bucket within ±tol only proves
		// the pair is a candidate (greedy matching decides the real count),
		// so visit each candidate pair once — stamped with a generation
		// counter that survives across pages — and compute its distance.
		tol := timeline.Day(cfg.ToleranceDays)
		for x := range fields {
			s.gen++
			for _, d := range days[x] {
				for off := -tol; off <= tol; off++ {
					rel := int(d+off) - int(span.Start)
					if rel < 0 || rel >= span.Len() {
						continue
					}
					for _, y := range s.buckets[rel] {
						if int(y) <= x || s.stamp[y] == s.gen {
							continue
						}
						s.stamp[y] = s.gen
						emit(x, int(y))
					}
				}
			}
		}
	}
	for _, rel := range s.usedDays {
		s.buckets[rel] = s.buckets[rel][:0]
	}
	s.usedDays = s.usedDays[:0]
	return rules, false
}

// newPredictor sorts rules and builds the partner index — the shared tail
// of Train, TrainIncremental and FromRules, so all three produce identical
// predictors from identical rule sets.
func newPredictor(rules []Rule) *Predictor {
	tspan := obs.StartSpan("train/correlation_index")
	defer tspan.End()
	p := &Predictor{
		rules:    rules,
		partners: make(map[changecube.FieldKey][]partnerRule, len(rules)),
	}
	sort.Slice(p.rules, func(i, j int) bool {
		if p.rules[i].A != p.rules[j].A {
			return fieldLess(p.rules[i].A, p.rules[j].A)
		}
		return fieldLess(p.rules[i].B, p.rules[j].B)
	})
	for _, r := range p.rules {
		p.partners[r.A] = append(p.partners[r.A], partnerRule{field: r.B, distance: r.Distance})
		p.partners[r.B] = append(p.partners[r.B], partnerRule{field: r.A, distance: r.Distance})
	}
	return p
}

func fieldLess(a, b changecube.FieldKey) bool {
	if a.Entity != b.Entity {
		return a.Entity < b.Entity
	}
	return a.Property < b.Property
}

// Name implements predict.Predictor.
func (p *Predictor) Name() string { return "field correlations" }

// Rules returns the learned rules, sorted by field.
func (p *Predictor) Rules() []Rule { return p.rules }

// NumRules returns the number of correlation rules.
func (p *Predictor) NumRules() int { return len(p.rules) }

// Partners returns the fields correlated with f.
func (p *Predictor) Partners(f changecube.FieldKey) []changecube.FieldKey {
	prs := p.partners[f]
	if len(prs) == 0 {
		return nil
	}
	out := make([]changecube.FieldKey, len(prs))
	for i, pr := range prs {
		out[i] = pr.field
	}
	return out
}

// Covers reports whether f participates in at least one rule.
func (p *Predictor) Covers(f changecube.FieldKey) bool {
	return len(p.partners[f]) > 0
}

// FiredRule is one correlation rule that fired for a prediction: the
// partner that changed in the window, with the learned distance it cleared
// θ by.
type FiredRule struct {
	Partner  changecube.FieldKey
	Distance float64
}

// Evidence is the predictor's firing rule, stated once: the target should
// have changed in window i of b if a correlated partner changed in it. It
// fills out with that verdict per window and, when fired is non-nil, calls
// it for every rule whose partner changed in some window of b — the
// paper's inherent explanation. Each partner costs one row lookup.
func (p *Predictor) Evidence(b predict.Batch, out []bool, fired func(FiredRule)) {
	clear(out)
	for _, pr := range p.partners[b.Target()] {
		hit := false
		for i, changed := range b.FieldChanged(pr.field) {
			if changed {
				out[i], hit = true, true
			}
		}
		if hit && fired != nil {
			fired(FiredRule{Partner: pr.field, Distance: pr.distance})
		}
	}
}

// PredictWindows implements predict.Predictor through Evidence.
func (p *Predictor) PredictWindows(b predict.Batch, out []bool) {
	p.Evidence(b, out, nil)
}

// FromRules reconstructs a predictor from previously learned rules — the
// deserialization path for model persistence. Rules are re-sorted so the
// result is identical to the original training output.
func FromRules(rules []Rule) *Predictor {
	return newPredictor(append([]Rule(nil), rules...))
}
