package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/wikistale/wikistale/internal/changecube"
	"github.com/wikistale/wikistale/internal/eval"
	"github.com/wikistale/wikistale/internal/timeline"
)

// The golden test pins the paper-facing outputs of the small corpus —
// model bytes, Table 1, the §6 extension rows, the filter funnel, the
// deployment scan and the audit records — so a refactor of the prediction
// path is shown to preserve behaviour byte for byte. A legitimate change
// of any of these outputs must update the pins below deliberately.

const goldenModelSHA = "2f6bc5b262035ba372785cc7843177b5e9e3bd5e94aaff7d9670622a31fba7d3"

const goldenTable1 = `mean baseline 1d P=0.003830 R=0.059775 n=22193
mean baseline 7d P=0.023333 R=0.408019 n=22243
mean baseline 30d P=0.027520 R=0.602339 n=14971
mean baseline 365d P=0.109772 R=0.835749 n=1576
threshold baseline 1d P=0.000000 R=0.000000 n=0
threshold baseline 7d P=0.891026 R=0.109277 n=156
threshold baseline 30d P=1.000000 R=0.087719 n=60
threshold baseline 365d P=0.693069 R=0.676329 n=202
field correlations 1d P=0.910359 R=0.321378 n=502
field correlations 7d P=0.935282 R=0.352201 n=479
field correlations 30d P=0.977273 R=0.251462 n=176
field correlations 365d P=1.000000 R=0.125604 n=26
association rules 1d P=0.905039 R=0.328411 n=516
association rules 7d P=0.935897 R=0.344340 n=468
association rules 30d P=0.961538 R=0.292398 n=208
association rules 365d P=0.966667 R=0.140097 n=30
AND-ensemble 1d P=0.882812 R=0.158931 n=256
AND-ensemble 7d P=0.934694 R=0.180031 n=245
AND-ensemble 30d P=0.977011 R=0.124269 n=87
AND-ensemble 365d P=1.000000 R=0.057971 n=12
OR-ensemble 1d P=0.916010 R=0.490858 n=762
OR-ensemble 7d P=0.935897 R=0.516509 n=702
OR-ensemble 30d P=0.966330 R=0.419591 n=297
OR-ensemble 365d P=0.977273 R=0.207729 n=44
`

const goldenExtension = `forecast baseline 1d P=0.026316 R=0.001406 n=76
forecast baseline 7d P=0.215537 R=0.290094 n=1712
forecast baseline 30d P=0.025060 R=0.517544 n=14126
forecast baseline 365d P=0.108571 R=0.826087 n=1575
seasonal 1d P=0.000000 R=0.000000 n=0
seasonal 7d P=0.000000 R=0.000000 n=0
seasonal 30d P=0.890110 R=0.118421 n=91
seasonal 365d P=0.777778 R=0.101449 n=27
family correlations 1d P=0.895522 R=0.084388 n=134
family correlations 7d P=0.960630 R=0.095912 n=127
family correlations 30d P=0.962963 R=0.076023 n=54
family correlations 365d P=1.000000 R=0.038647 n=8
OR-ensemble 1d P=0.916010 R=0.490858 n=762
OR-ensemble 7d P=0.935897 R=0.516509 n=702
OR-ensemble 30d P=0.966330 R=0.419591 n=297
OR-ensemble 365d P=0.977273 R=0.207729 n=44
extended OR-ensemble 1d P=0.916010 R=0.490858 n=762
extended OR-ensemble 7d P=0.935897 R=0.516509 n=702
extended OR-ensemble 30d P=0.951429 R=0.486842 n=350
extended OR-ensemble 365d P=0.888889 R=0.270531 n=63
`

const goldenFunnel = `bot reverts 63879 -> 63861
day dedup 63861 -> 55094
create/delete 55094 -> 36462
min changes 36462 -> 20707
fields 1612
`

const goldenDetectSHA = "c48f06edfb1269732343197031e9e4c5f08c5b3ec37e730e3377190fde7aecb6"

const goldenExplainSHA = "43dddde3d824aa4f5cfaf5a2b79ea7473af6be1253c5339f132763fe412f0ffb"

func goldenRows(report *eval.Report, sizes []int) string {
	var b strings.Builder
	for _, name := range report.Predictors {
		for _, size := range sizes {
			c := report.BySize[name][size]
			fmt.Fprintf(&b, "%s %dd P=%.6f R=%.6f n=%d\n", name, size, c.Precision(), c.Recall(), c.Predictions())
		}
	}
	return b.String()
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func checkGolden(t *testing.T, what, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s changed:\n got: %s\nwant: %s", what, got, want)
	}
}

func TestGoldenOutputs(t *testing.T) {
	c, report := prepared(t)
	det := c.Detector

	model, err := det.MarshalModel()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "model sha256", sha(string(model)), goldenModelSHA)

	checkGolden(t, "Table 1", goldenRows(report, timeline.StandardSizes), goldenTable1)

	ext, _, err := Extension(c)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "extension rows", goldenRows(ext, timeline.StandardSizes), goldenExtension)

	var funnel strings.Builder
	for _, st := range c.Funnel.Stages {
		fmt.Fprintf(&funnel, "%s %d -> %d\n", st.Name, st.In, st.Out)
	}
	fmt.Fprintf(&funnel, "fields %d\n", c.Filtered.Len())
	checkGolden(t, "filter funnel", funnel.String(), goldenFunnel)

	// The deployment scan at the split end, at a mid-year day that no
	// tumbling window of any size starts on, and at monthly days between.
	end := det.Splits().Test.End
	days := []timeline.Day{end, det.Splits().Test.Start + 183}
	for d := det.Splits().Test.Start + 17; d < end; d += 30 {
		days = append(days, d)
	}
	var scan strings.Builder
	for _, asOf := range days {
		for _, size := range timeline.StandardSizes {
			for _, a := range det.DetectStale(asOf, size) {
				fmt.Fprintf(&scan, "%d %d %v %d/%d %s %q\n",
					asOf, size, a.Window.Span, a.Field.Entity, a.Field.Property,
					strings.Join(a.Sources, ","), a.Explanation)
			}
		}
	}
	checkGolden(t, "DetectStale sha256", sha(scan.String()), goldenDetectSHA)

	// The audit records at 7 days of a fixed field sample: every field the
	// weekly scan reports at the two pinned days, plus every 13th recorded
	// history.
	var audit strings.Builder
	record := func(field changecube.FieldKey, asOf timeline.Day) {
		body, err := json.Marshal(det.Explain(field, asOf, 7))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&audit, "%d %v %s %v\n", asOf, field, body, det.Votes(field, asOf, 7))
	}
	for _, asOf := range days[:2] {
		for _, a := range det.DetectStale(asOf, 7) {
			record(a.Field, asOf)
		}
		for i, h := range c.Filtered.Histories() {
			if i%13 == 0 {
				record(h.Field, asOf)
			}
		}
	}
	checkGolden(t, "Explain/Votes sha256", sha(audit.String()), goldenExplainSHA)
	if t.Failed() {
		t.Logf("table 1:\n%s", goldenRows(report, timeline.StandardSizes))
		t.Logf("extension:\n%s", goldenRows(ext, timeline.StandardSizes))
		t.Logf("funnel:\n%s", funnel.String())
	}
}
