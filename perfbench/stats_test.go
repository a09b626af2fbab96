package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"rheem/internal/core/trace"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	orig := append([]float64(nil), xs...)
	for _, tc := range []struct{ p, want float64 }{
		{1, 1}, {10, 1}, {11, 2}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if !reflect.DeepEqual(xs, orig) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
	if got := percentile([]float64{4}, 99); got != 4 {
		t.Errorf("percentile of one sample = %g, want 4", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2 {
		t.Errorf("median of four = %g, want the lower middle 2", got)
	}
}

func TestWindowedPercentile(t *testing.T) {
	// Five windows of four; one window holds a burst of slow samples.
	xs := []float64{1, 2, 3, 4, 1, 2, 3, 4, 90, 91, 92, 93, 1, 2, 3, 4, 1, 2, 3, 4}
	if got := windowedPercentile(xs, 100, 5); got != 4 {
		t.Errorf("windowed max = %g, want 4: the burst window must not decide it", got)
	}
	if got := windowedPercentile(xs, 50, 5); got != 2 {
		t.Errorf("windowed median = %g, want 2", got)
	}
	if got := windowedPercentile([]float64{5, 1, 3}, 50, 5); got != 3 {
		t.Errorf("with fewer samples than windows: %g, want the plain median 3", got)
	}
}

func TestScheduleIsDeterministic(t *testing.T) {
	a := schedule(42, 150, 5000, 10)
	b := schedule(42, 150, 5000, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(43, 150, 5000, 10)) {
		t.Fatal("two seeds gave the same schedule")
	}
	tenants := map[string]bool{}
	var prev time.Duration
	for i, arr := range a {
		if arr.due < prev {
			t.Fatalf("arrival %d due at %s, before its predecessor at %s", i, arr.due, prev)
		}
		prev = arr.due
		if arr.spec < 0 || arr.spec >= 10 {
			t.Fatalf("arrival %d has spec %d of 10", i, arr.spec)
		}
		tenants[arr.tenant] = true
	}
	if len(tenants) != serveTenants {
		t.Errorf("schedule used %d tenants, want %d", len(tenants), serveTenants)
	}
	// 5000 Poisson arrivals at 150/s span about 33.3s.
	if rate := float64(len(a)) / a[len(a)-1].due.Seconds(); math.Abs(rate-150) > 15 {
		t.Errorf("schedule rate %.1f/s, want about 150/s", rate)
	}
}

func TestCovered(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(from, to int) interval { return interval{at(from), at(to)} }
	for _, tc := range []struct {
		name   string
		ivs    []interval
		lo, hi int
		want   int
	}{
		{"none", nil, 0, 100, 0},
		{"disjoint", []interval{iv(0, 10), iv(20, 30)}, 0, 100, 20},
		{"overlapping", []interval{iv(0, 10), iv(5, 15), iv(14, 20)}, 0, 100, 20},
		{"nested", []interval{iv(0, 50), iv(10, 20)}, 0, 100, 50},
		{"unsorted", []interval{iv(40, 50), iv(0, 10)}, 0, 100, 20},
		{"clipped", []interval{iv(-10, 10), iv(90, 120)}, 0, 100, 20},
		{"outside", []interval{iv(200, 300)}, 0, 100, 0},
		{"touching", []interval{iv(0, 10), iv(10, 20)}, 0, 100, 20},
	} {
		if got := covered(tc.ivs, at(tc.lo), at(tc.hi)); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: covered = %s, want %dms", tc.name, got, tc.want)
		}
	}
}

func TestLayerSum(t *testing.T) {
	layers := map[string]time.Duration{"a": 3 * time.Millisecond, "b": 5 * time.Millisecond}
	if other := layerSum(10*time.Millisecond, layers); other != 2*time.Millisecond {
		t.Errorf("other = %s, want 2ms", other)
	}
	if other := layerSum(7*time.Millisecond, layers); other != -time.Millisecond {
		t.Errorf("double-counted layers: other = %s, want -1ms", other)
	}
}

// TestAnalyzeSpansSumsToRun checks that an executor run splits exactly
// into executor self time, platform attempts and conversion, with
// overlapping atoms counted once.
func TestAnalyzeSpansSumsToRun(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	msd := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []*trace.Span{
		// 2ms conversion, then a failed 3ms attempt and a 5ms one.
		{Kind: trace.KindAtom, Platform: "java", StartedAt: at(10), EndedAt: at(20),
			Attempts: []trace.Attempt{{Number: 1, Wall: msd(3), Err: "x"}, {Number: 2, Wall: msd(5)}}, Retries: 1},
		// Runs alongside the first atom's attempts: 20..30 is new.
		{Kind: trace.KindAtom, Platform: "spark", StartedAt: at(15), EndedAt: at(30),
			Attempts: []trace.Attempt{{Number: 1, Wall: msd(15)}}},
		// Loop spans and service phases are not platform work.
		{Kind: trace.KindLoop, StartedAt: at(40), EndedAt: at(60)},
		{Kind: trace.KindDispatch, StartedAt: at(0), EndedAt: at(100)},
	}
	b := analyzeSpans(spans, at(0), at(100))
	if b.run != msd(100) {
		t.Fatalf("run = %s, want 100ms", b.run)
	}
	// Attempts cover 12..30; the first atom's 10..12 is conversion.
	if b.platform != msd(18) || b.conv != msd(2) || b.self != msd(80) {
		t.Errorf("platform %s, conv %s, self %s; want 18ms, 2ms, 80ms", b.platform, b.conv, b.self)
	}
	if b.self+b.platform+b.conv != b.run {
		t.Errorf("layers sum to %s, want the run's %s", b.self+b.platform+b.conv, b.run)
	}
	if b.busy["java"] != msd(8) || b.busy["spark"] != msd(15) {
		t.Errorf("busy = %v, want java 8ms, spark 15ms", b.busy)
	}
	if b.retries != 1 {
		t.Errorf("retries = %d, want 1", b.retries)
	}
	if b.loopOver != msd(20) {
		t.Errorf("loop overhead = %s, want the loop's whole 20ms", b.loopOver)
	}
	b = analyzeSpans(spans[:1], at(0), at(100))
	if b.conv != msd(2) || b.platform != msd(8) || b.self != msd(90) {
		t.Errorf("platform %s, conv %s, self %s; want 8ms, 2ms, 90ms", b.platform, b.conv, b.self)
	}
}

func TestSustainableRate(t *testing.T) {
	ph := func(rate float64, p99 float64, failed int) *phase {
		p := &phase{rate: rate, failed: failed}
		for i := 0; i < 100; i++ {
			p.lats = append(p.lats, p99)
		}
		return p
	}
	for _, tc := range []struct {
		name   string
		phases []*phase
		want   float64
	}{
		{"interpolated", []*phase{ph(100, 20, 0), ph(200, 60, 0), ph(300, 140, 0)}, 250},
		{"never missed", []*phase{ph(100, 20, 0), ph(200, 60, 0)}, 200},
		{"first missed", []*phase{ph(100, 200, 0)}, 50},
		{"shed counts as twice the limit", []*phase{ph(100, 50, 0), ph(200, 10, 5)}, 100 + 100*50.0/150},
	} {
		if got := sustainableRate(tc.phases, 100); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: sustainable rate %g, want %g", tc.name, got, tc.want)
		}
	}
}

func TestBuildReportNeedsEveryMetric(t *testing.T) {
	out := &outcome{attempted: 1, metrics: map[string]float64{}}
	for _, m := range endToEnd {
		out.metrics[m.name] = 1
	}
	rep, err := buildReport(out, endToEnd)
	if err != nil || !rep.Correct || len(rep.Metrics) != len(endToEnd) {
		t.Fatalf("complete outcome: report %+v, error %v", rep, err)
	}
	out.metrics["latency_p99_ms"] = math.NaN()
	if _, err := buildReport(out, endToEnd); err == nil {
		t.Error("a NaN metric was reported")
	}
	delete(out.metrics, "latency_p99_ms")
	if _, err := buildReport(out, endToEnd); err == nil {
		t.Error("a missing metric was not an error")
	}
}

// TestMetricNames checks every metric against the naming rules and
// against BENCHMARK.json at the repository root, which must list the
// same metrics with the same units.
func TestMetricNames(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.name) {
			t.Errorf("metric name %q breaks the naming rules", m.name)
		}
		if !unit.MatchString(m.unit) {
			t.Errorf("metric %s has unit %q", m.name, m.unit)
		}
		if seen[m.name] {
			t.Errorf("metric %s listed twice", m.name)
		}
		seen[m.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the benchmark reports %d", len(got), kind, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s metric %d is %s [%s], want %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not run", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bj.Workloads), len(workloads))
	}
}
