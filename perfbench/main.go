// Command perfbench is PAINTER's benchmark: one process that drives the
// control path (solve, churn) and the data path (tunnel, failover)
// through the program's public API, checks every operation's output,
// and prints every end-to-end metric with its unit. With --trace 1 it
// runs the workload twice, untraced and then traced, and prints the
// per-layer metrics instead, with a self-time table and the tracing
// overhead.
//
//	go run . --workload solve --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// params are what every workload receives.
type params struct {
	seed    int64
	seconds int
	clk     clock
	// spans is the program's tracer; nil when untraced.
	spans *spanSource
}

// workCount is one count of work a run did. Runs with the same seed
// and length must report identical counts.
type workCount struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// outcome is what a workload reports back.
type outcome struct {
	attempted, failed int
	// problems are failed output checks, one line each.
	problems []string

	setupS  []float64 // one entry per set-up repetition
	latMs   []float64 // one entry per completed operation
	tailPct float64
	ops     int // completed operations
	phase   *meter
	quality float64
	counts  []workCount
	layers  map[string]float64
	table   *layerTable // traced runs only

	// res holds the end-to-end metrics once close has run; samples is
	// how many latencies they were computed from.
	res     map[string]float64
	samples int
	spread  string // latency percentiles, for the text report
}

func newOutcome(tailPct float64) *outcome {
	return &outcome{tailPct: tailPct, layers: map[string]float64{}}
}

// close ends a run: it derives the end-to-end metrics, drops the
// per-operation samples, and measures the live heap with the
// workload's state (keep) still reachable.
func (o *outcome) close(keep ...any) {
	o.res = summarize(o)
	o.samples = len(o.latMs)
	lat := sortedCopy(o.latMs)
	o.spread = fmt.Sprintf("p10 %.6g  p50 %.6g  p90 %.6g  p99 %.6g  max %.6g ms",
		percentile(lat, 10), percentile(lat, 50), percentile(lat, 90), percentile(lat, 99), percentile(lat, 100))
	o.latMs = nil
	o.res["retained_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(keep)
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type workload struct {
	name, why string
	run       func(params) (*outcome, error)
}

var workloads = []workload{
	{"solve", "Operator's plan and re-plan path: cold peering-scale solves (netsim.New, core.New, two-iteration Solve), dominated by the grow loop; repair, delta propagation and tm idle.", runSolve},
	{"churn", "Production per-tick pipeline: 8 paused peering tenants stepped through storm fault schedules; full-solve fallback, repair, warm caches, delta propagation, catchment, history, alerts.", runChurn},
	{"tunnel", "Per-packet datapath cost: closed-loop echo round trips, window 4, from an in-process TM-Edge to a TM-PoP over loopback with 20k pinned flows; solver and prober idle.", runTunnel},
	{"failover", "The paper's ~1-RTT failover: the primary PoP's emul link is cut and restored every 250 ms under a paced stream; probing, dead detection, reselection, repin, which tunnel never triggers.", runFailover},
}

// metricDef is one reported metric.
type metricDef struct {
	name, unit, better string
	// moves names the end-to-end metric and workload a per-layer
	// metric should move.
	moves string
}

var endToEnd = []metricDef{
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_tail_ms", unit: "ms", better: "lower"},
	{name: "throughput_per_s", unit: "1/s", better: "higher"},
	{name: "cpu_per_op_ms", unit: "ms", better: "lower"},
	{name: "retained_heap_mb", unit: "MB", better: "lower"},
	{name: "quality", unit: "ratio", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
}

var perLayer = []metricDef{
	{"netsim.world_new_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.sim_inputs_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.new_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.solve_ms", "ms", "lower", "solve/latency_p50_ms, solve/throughput_per_s"},
	{"core.solve_parallelism", "ratio", "higher", "solve/latency_p50_ms"},
	{"core.iteration_first_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.iteration_later_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.place_prefix_self_ms", "ms", "lower", "solve/latency_p50_ms, churn/latency_tail_ms"},
	{"core.execute_self_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"core.resolve_prefix_self_ms", "ms", "lower", "solve/latency_p50_ms"},
	{"netsim.resolve_self_ms", "ms", "lower", "solve/latency_p50_ms, churn/latency_p50_ms"},
	{"bgp.propagate_self_ms", "ms", "lower", "solve/latency_p50_ms, churn/latency_p50_ms"},
	{"netsim.resolve_hit_ratio", "ratio", "higher", "solve/latency_p50_ms, churn/latency_p50_ms"},
	{"core.facts_learned", "count", "higher", "guards solve/quality"},
	{"tenant.reconcile_ms", "ms", "lower", "churn/setup_s"},
	{"tenant.step_ms", "ms", "lower", "churn/latency_p50_ms"},
	{"core.repair_self_ms", "ms", "lower", "churn/latency_p50_ms"},
	{"core.regrow_prefix_self_ms", "ms", "lower", "churn/latency_p50_ms"},
	{"bgp.propagate_delta_self_ms", "ms", "lower", "churn/latency_p50_ms"},
	{"tenant.analysis_ms", "ms", "lower", "churn/latency_p50_ms"},
	{"core.repair_share", "ratio", "higher", "churn/latency_tail_ms, churn/throughput_per_s; guarded by churn/quality"},
	{"netsim.delta_share", "ratio", "higher", "churn/latency_p50_ms"},
	{"tm.edge_send_us", "us", "lower", "tunnel/throughput_per_s, tunnel/cpu_per_op_ms"},
	{"tm.return_path_us", "us", "lower", "tunnel/latency_p50_ms"},
	{"tm.pop_overload_waits", "count", "lower", "tunnel/latency_tail_ms, tunnel/quality"},
	{"tm.send_errors", "count", "lower", "tunnel/latency_tail_ms, tunnel/quality"},
	{"tm.process_cpu_share", "ratio", "lower", "shows whether tunnel/throughput_per_s was CPU-bound"},
	{"tm.detect_ms", "ms", "lower", "failover/latency_p50_ms"},
	{"tm.reselect_ms", "ms", "lower", "failover/latency_p50_ms"},
	{"tm.repin_ms", "ms", "lower", "failover/latency_p50_ms"},
	{"tm.probes_per_s", "1/s", "lower", "failover/latency_p50_ms, tunnel/cpu_per_op_ms"},
	{"tm.repinned_flows", "count", "higher", "failover/quality"},
	{"tm.pop_flow_moves", "count", "lower", "failover/quality"},
	{"runtime.allocs_per_op", "count", "lower", "each workload's cpu_per_op_ms and latency_tail_ms"},
	{"runtime.gc_cpu_share", "ratio", "lower", "each workload's cpu_per_op_ms and latency_tail_ms"},
	{"bench.unattributed_ms", "ms", "lower", "share of latency no traced layer explains"},
	{"bench.trace_overhead_ms", "ms", "lower", "traced minus untraced latency_p50_ms"},
	{"bench.spans_recorded", "count", "higher", "spans the traced run kept; it fails if any were dropped"},
}

// heldOutSeed is the seed later performance claims must also hold on;
// it is derived, never typed in, so a claim cannot pick it.
func heldOutSeed(seed int64) int64 { return seed*6364136223846793005 + 1442695040888963407 }

func main() {
	name := flag.String("workload", "", "workload: solve, churn, tunnel or failover")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 15, "nominal length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	state := flag.String("state", ".bench_build/perfbench-state", "directory holding work counts of earlier runs")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (solve|churn|tunnel|failover), --seconds >= 1, --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(wl, *seed, *seconds, *trace == 1, *state); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
		os.Exit(1)
	}
}

func run(wl *workload, seed int64, seconds int, traced bool, state string) error {
	prov := map[string]any{
		"workload":      wl.name,
		"why":           wl.why,
		"seed":          seed,
		"held_out_seed": heldOutSeed(seed),
		"seconds":       seconds,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"network":       "in-process UDP over loopback; failover links are netsim/emul relays with fixed delay, not a real link",
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", pj)

	p := params{seed: seed, seconds: seconds, clk: newClock()}
	base, err := wl.run(p)
	if err != nil {
		return err
	}
	res := base.res
	printOutcome("untraced", base, res)

	problems := append([]string(nil), base.problems...)
	if p := checkCounts(state, wl.name, seed, seconds, base.counts); p != "" {
		problems = append(problems, p)
	}
	attempted, failed := base.attempted, base.failed

	metrics := map[string]map[string]any{}
	if !traced {
		for _, m := range endToEnd {
			metrics[m.name] = map[string]any{"value": finite(res[m.name]), "unit": m.unit}
		}
	} else {
		p.spans = newSpanSource(p.clk)
		tr, err := wl.run(p)
		if err != nil {
			return err
		}
		tres := tr.res
		printOutcome("traced", tr, tres)
		problems = append(problems, tr.problems...)
		if !slices.Equal(base.counts, tr.counts) {
			problems = append(problems, "work counts of the traced run differ from the untraced run")
		}
		attempted += tr.attempted
		failed += tr.failed
		total, err := p.spans.check()
		if err != nil {
			problems = append(problems, err.Error())
		}
		layers := base.layers
		for k, v := range tr.layers {
			if _, ok := layers[k]; !ok {
				layers[k] = v
			}
		}
		if tr.table != nil {
			layers["bench.unattributed_ms"] = tr.table.selfMs(opRoot)
			for _, m := range perLayer {
				if s, ok := strings.CutSuffix(m.name, "_self_ms"); ok {
					layers[m.name] = tr.table.selfMs(s)
				}
			}
			tr.table.write(os.Stdout)
		}
		layers["bench.trace_overhead_ms"] = tres["latency_p50_ms"] - res["latency_p50_ms"]
		layers["bench.spans_recorded"] = float64(total)
		fmt.Printf("per-layer metrics (mean or median per operation; 0 = layer not exercised by %s):\n", wl.name)
		for _, m := range perLayer {
			v := finite(layers[m.name])
			metrics[m.name] = map[string]any{"value": v, "unit": m.unit}
			fmt.Printf("  %-30s %14.6g %-6s moves %s\n", m.name, v, m.unit, m.moves)
		}
	}
	for _, pr := range problems {
		fmt.Printf("FAILED CHECK: %s\n", pr)
	}
	out := map[string]any{
		"correct":   len(problems) == 0 && failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// summarize derives the end-to-end metrics from an outcome.
func summarize(o *outcome) map[string]float64 {
	lat := sortedCopy(o.latMs)
	res := map[string]float64{
		"latency_p50_ms":   percentile(lat, 50),
		"latency_tail_ms":  percentile(lat, o.tailPct),
		"throughput_per_s": float64(o.ops) / o.phase.Wall.Seconds(),
		"cpu_per_op_ms":    msOf(o.phase.CPU) / float64(max(o.ops, 1)),
		"quality":          o.quality,
		"setup_s":          median(o.setupS),
	}
	if b := beyond(len(lat), o.tailPct); b < minBeyond {
		o.problem("tail p%g has %d samples beyond it, want >= %d", o.tailPct, b, minBeyond)
	}
	o.layers["runtime.allocs_per_op"] = float64(o.phase.Allocs) / float64(max(o.ops, 1))
	o.layers["runtime.gc_cpu_share"] = o.phase.GCCPUShare
	return res
}

func printOutcome(label string, o *outcome, res map[string]float64) {
	fmt.Printf("%s: %d operations attempted, %d failed, %d completed in %.3f s\n",
		label, o.attempted, o.failed, o.ops, o.phase.Wall.Seconds())
	fmt.Printf("  tail percentile p%g (%d samples beyond it); %d set-up repetitions\n",
		o.tailPct, beyond(o.samples, o.tailPct), len(o.setupS))
	fmt.Printf("  latency %s\n", o.spread)
	for _, m := range endToEnd {
		fmt.Printf("  %-18s %14.6g %s\n", m.name, res[m.name], m.unit)
	}
	cs := make([]string, len(o.counts))
	for i, c := range o.counts {
		cs[i] = fmt.Sprintf("%s=%d", c.Name, c.Value)
	}
	fmt.Printf("  work counts: %s\n", strings.Join(cs, " "))
}

// finite maps a metric no operation produced (NaN) to 0, which JSON
// can carry; the run is already marked incorrect in that case.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// checkCounts compares a run's work counts with those recorded by an
// earlier run with the same workload, seed and length, recording them
// if there was none. It returns a problem line on mismatch.
func checkCounts(dir, workload string, seed int64, seconds int, counts []workCount) string {
	path := fmt.Sprintf("%s/%s-seed%d-s%d.json", dir, workload, seed, seconds)
	if b, err := os.ReadFile(path); err == nil {
		var prev []workCount
		if json.Unmarshal(b, &prev) == nil && !slices.Equal(prev, counts) {
			return fmt.Sprintf("work counts differ from an earlier run with the same seed: was %v, now %v", prev, counts)
		}
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	b, _ := json.Marshal(counts)
	_ = os.WriteFile(path, b, 0o644)
	return ""
}
