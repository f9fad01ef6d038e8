package main

import (
	"fmt"
	"reflect"
	"time"

	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// The solve workload: a closed loop with one caller. Each operation is
// a cold solve of a fresh peering-scale world: netsim.New,
// core.SimInputs, core.New, then Orchestrator.Solve with two learning
// iterations. Operations cycle through a list of topologies derived
// from the seed; each topology is solved at least twice, so a solve
// that differs from the first solve of its topology fails its check.
const (
	solveBudget     = 3
	solveIterations = 2
	// solveOpsPerSecond sizes the run: about three solves a second on
	// a 2-CPU box.
	solveOpsPerSecond = 3
	solveTailPct      = 75
	solveSetups       = 3
)

type solveTopo struct {
	seed int64
	g    *topology.Graph
	d    *cloud.Deployment
	ugs  *usergroup.Set
}

// topoSeed derives the i-th topology seed from the benchmark seed.
func topoSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i)*7919 + 1 }

func buildSolveTopo(seed int64) (solveTopo, error) {
	gen, prof, ugCfg, err := experiments.ScaleConfig(experiments.ScalePEERING, seed)
	if err != nil {
		return solveTopo{}, err
	}
	g, err := topology.Generate(gen)
	if err != nil {
		return solveTopo{}, err
	}
	d, err := cloud.Build(g, 64500, prof)
	if err != nil {
		return solveTopo{}, err
	}
	ugs, err := usergroup.Build(g, ugCfg)
	if err != nil {
		return solveTopo{}, err
	}
	return solveTopo{seed: seed, g: g, d: d, ugs: ugs}, nil
}

func runSolve(p params) (*outcome, error) {
	nOps := max(solveOpsPerSecond*p.seconds, minSamplesForTail(solveTailPct))
	topos := make([]solveTopo, (nOps+1)/2)
	o := newOutcome(solveTailPct)
	// The topologies are built solveSetups times and set-up time is the
	// median build: one pass takes about 0.2 s, and its median moved by
	// 40% between runs.
	for rep := 0; rep < solveSetups; rep++ {
		for i := range topos {
			t0 := time.Now()
			t, err := buildSolveTopo(topoSeed(p.seed, i))
			if err != nil {
				return nil, fmt.Errorf("topology %d: %w", i, err)
			}
			o.setupS = append(o.setupS, time.Since(t0).Seconds())
			topos[i] = t
		}
	}

	var (
		first                         = make([]*core.Config, len(topos))
		worldMs, inputsMs, newMs      []float64
		solveMs, iterFirst, iterLater []float64
		solveCPU, solveWall           time.Duration
		quality                       float64
		facts, prefixes               int64
		cache                         netsim.CacheStats
		lastWorld                     *netsim.World
		lastOrch                      *core.Orchestrator
	)
	if p.spans != nil {
		o.table = newLayerTable()
	}
	m := startMeter()
	for op := 0; op < nOps; op++ {
		tp := topos[op%len(topos)]
		o.attempted++
		c0 := p.clk.now()
		w, err := netsim.New(tp.g, tp.d, tp.seed+2)
		if err != nil {
			return nil, err
		}
		c1 := p.clk.now()
		in, covered, err := core.SimInputs(w, tp.ugs, nil)
		if err != nil {
			return nil, err
		}
		c2 := p.clk.now()
		sp := core.DefaultParams(solveBudget)
		sp.MaxIterations = solveIterations
		if p.spans != nil {
			sp.Trace = p.spans.tr
		}
		orch, err := core.New(in, core.NewWorldExecutor(w, covered, 0, tp.seed+5), sp)
		if err != nil {
			return nil, err
		}
		c3 := p.clk.now()
		cpu0 := cpuTime()
		cfg, err := orch.Solve()
		solveCPU += cpuTime() - cpu0
		c4 := p.clk.now()
		solveWall += time.Duration(c4 - c3)

		m.pause()
		o.latMs = append(o.latMs, float64(c4-c0)/1e6)
		worldMs = append(worldMs, float64(c1-c0)/1e6)
		inputsMs = append(inputsMs, float64(c2-c1)/1e6)
		newMs = append(newMs, float64(c3-c2)/1e6)
		solveMs = append(solveMs, float64(c4-c3)/1e6)
		if err != nil {
			o.failed++
			o.problem("solve of topology %d: %v", tp.seed, err)
		} else if bad := checkSolve(&cfg, tp, &first[op%len(topos)]); bad != "" {
			o.failed++
			o.problem("solve of topology %d: %s", tp.seed, bad)
		} else {
			o.ops++
			ev, err := core.Evaluate(w, covered, cfg)
			if err != nil {
				return nil, err
			}
			quality += ev.FractionOfPossible()
			for _, r := range orch.Reports() {
				facts += int64(r.FactsLearned)
			}
			prefixes += int64(cfg.NumPrefixes())
		}
		cs := w.CacheStats()
		cache.ResolveHits += cs.ResolveHits
		cache.ResolveMisses += cs.ResolveMisses
		if p.spans != nil {
			recs, err := p.spans.take()
			if err != nil {
				o.problem("%v", err)
			}
			for _, r := range recs {
				if r.Name != "core.iteration" {
					continue
				}
				ms := float64(r.DurNs) / 1e6
				if attr(r.Attrs, "iteration") == "1" {
					iterFirst = append(iterFirst, ms)
				} else {
					iterLater = append(iterLater, ms)
				}
			}
			t := newOpTree(c0)
			t.nodes[0].end = c4
			t.add("call.netsim.New", 0, c0, c1)
			t.add("call.core.SimInputs", 0, c1, c2)
			t.add("call.core.New", 0, c2, c3)
			t.add("call.Orchestrator.Solve", 0, c3, c4)
			o.table.left += t.adopt(recs)
			o.table.add(t)
		}
		lastWorld, lastOrch = w, orch
		m.resume()
	}
	m.stop()
	o.phase = m

	o.quality = quality / float64(max(o.ops, 1))
	o.counts = []workCount{{"solves", int64(o.ops)}, {"facts_learned", facts}, {"prefixes_placed", prefixes}}
	o.layers["netsim.world_new_ms"] = median(worldMs)
	o.layers["core.sim_inputs_ms"] = median(inputsMs)
	o.layers["core.new_ms"] = median(newMs)
	o.layers["core.solve_ms"] = median(solveMs)
	o.layers["core.solve_parallelism"] = solveCPU.Seconds() / solveWall.Seconds()
	o.layers["core.facts_learned"] = float64(facts) / float64(max(o.ops, 1))
	if lookups := cache.ResolveHits + cache.ResolveMisses; lookups > 0 {
		o.layers["netsim.resolve_hit_ratio"] = float64(cache.ResolveHits) / float64(lookups)
	}
	if p.spans != nil {
		o.layers["core.iteration_first_ms"] = median(iterFirst)
		o.layers["core.iteration_later_ms"] = median(iterLater)
	}
	o.close(topos, lastWorld, lastOrch)
	return o, nil
}

// checkSolve validates a configuration against its deployment and
// against the first configuration solved for the same topology.
func checkSolve(cfg *core.Config, tp solveTopo, first **core.Config) string {
	if err := cfg.Validate(tp.d); err != nil {
		return err.Error()
	}
	if *first == nil {
		c := cfg.Clone()
		*first = &c
		return ""
	}
	if !reflect.DeepEqual(cfg.Prefixes, (*first).Prefixes) {
		return "configuration differs from the first solve of the same topology"
	}
	return ""
}
