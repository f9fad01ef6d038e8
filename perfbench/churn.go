package main

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"strings"
	"time"

	"painter/internal/chaos"
	"painter/internal/cloud"
	"painter/internal/core"
	"painter/internal/experiments"
	"painter/internal/netsim"
	"painter/internal/obs"
	"painter/internal/tenant"
	"painter/internal/topology"
	"painter/internal/usergroup"
)

// The churn workload: a closed loop with one driver. One tenant.Manager
// holds a few paused peering-scale tenants with distinct seeds; the
// driver calls Manager.Step round-robin through every tenant's fault
// schedule up to its final recovery. Each operation is one tick: apply
// the tick's events, Sync (repair, or a full solve past the dirty
// threshold), then the catchment, history and alert tier.
const (
	churnTenants = 8
	churnBudget  = 8
	// churnProfile is the tenants' chaos profile; churnGenConfig must
	// build the same schedule shape for the twin replay.
	churnProfile = "storm"
	// churnTicksPerSecond sizes each tenant's schedule: about a second
	// of the run per two ticks on a 2-CPU box.
	churnTicksPerSecond = 2
	churnTailPct        = 90
)

// churnGenConfig mirrors the tenant package's "storm" profile: the
// twin world replays the schedule the tenant was given.
func churnGenConfig(seed int64, ticks int) chaos.GenConfig {
	gc := chaos.DefaultGenConfig(seed)
	gc.StormProb, gc.StormSize = 0.25, 6
	gc.PeeringFailProb = 0.45
	gc.Ticks = ticks
	return gc
}

// churnSpecs derives the tenants' specs from the benchmark seed.
func churnSpecs(seed int64, seconds int) ([]string, []tenant.Spec) {
	ticks := max(churnTicksPerSecond*seconds, (minSamplesForTail(churnTailPct)+churnTenants-1)/churnTenants)
	ids := make([]string, churnTenants)
	specs := make([]tenant.Spec, churnTenants)
	for i := range specs {
		ids[i] = fmt.Sprintf("t%02d", i)
		specs[i] = tenant.Spec{
			Scale: "peering", Seed: seed*7_919 + int64(i)*104_729 + 11,
			Budget: churnBudget, TickMs: 1, Paused: true,
			Chaos: tenant.ChaosSpec{Profile: churnProfile, Seed: seed*31 + int64(i) + 3, Ticks: ticks},
		}
	}
	return ids, specs
}

func runChurn(p params) (*outcome, error) {
	ids, specs := churnSpecs(p.seed, p.seconds)
	mp := tenant.Params{
		ReconcileInterval: time.Hour,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	}
	if p.spans != nil {
		mp.Trace = p.spans.tr
	}
	mgr := tenant.NewManager(mp)
	defer mgr.Close()

	o := newOutcome(churnTailPct)
	left := make([]int, len(ids))
	var reconcileMs []float64
	for i, id := range ids {
		t0 := time.Now()
		if _, err := mgr.Apply(id, specs[i], 0); err != nil {
			return nil, err
		}
		mgr.Reconcile()
		d := time.Since(t0)
		o.setupS = append(o.setupS, d.Seconds())
		reconcileMs = append(reconcileMs, msOf(d))
		st, ok := mgr.Status(id)
		if !ok || st.Error != "" {
			return nil, fmt.Errorf("tenant %s did not build: %s", id, st.Error)
		}
		left[i] = st.ScheduleTicks
	}
	if p.spans != nil {
		// Set-up spans (the initial solves) belong to no operation.
		if _, err := p.spans.take(); err != nil {
			return nil, err
		}
		o.table = newLayerTable()
	}

	var stepMs []float64
	m := startMeter()
	for more := true; more; {
		more = false
		for i, id := range ids {
			if left[i] == 0 {
				continue
			}
			left[i]--
			more = true
			o.attempted++
			c0 := p.clk.now()
			_, err := mgr.Step(id)
			c1 := p.clk.now()

			m.pause()
			ms := float64(c1-c0) / 1e6
			o.latMs = append(o.latMs, ms)
			stepMs = append(stepMs, ms)
			if err != nil {
				o.failed++
				o.problem("step %s: %v", id, err)
			} else {
				o.ops++
			}
			if p.spans != nil {
				recs, err := p.spans.take()
				if err != nil {
					o.problem("%v", err)
				}
				t := newOpTree(c0)
				t.nodes[0].end = c1
				t.add("call.Manager.Step", 0, c0, c1)
				o.table.left += t.adopt(recs)
				o.table.add(t)
			}
			m.resume()
		}
	}
	m.stop()
	o.phase = m

	var events, repairs, full, noops int64
	for i, id := range ids {
		st, _ := mgr.Status(id)
		if st.Phase == tenant.PhaseFailed {
			o.problem("tenant %s failed: %s", id, st.Error)
		}
		if !st.ScheduleDone {
			o.problem("tenant %s did not finish its schedule", id)
		}
		events += int64(st.EventsApplied)
		repairs += int64(st.Repairs)
		full += int64(st.FullSolves)
		noops += int64(st.Noops)
		cfg, _ := mgr.Config(id)
		q, benefit, err := twinQuality(specs[i], cfg)
		if err != nil {
			return nil, fmt.Errorf("tenant %s twin: %w", id, err)
		}
		if math.Abs(benefit-st.FinalBenefitMs) > 1e-9*math.Max(1, math.Abs(benefit)) {
			o.problem("tenant %s: twin world benefit %.6f ms, tenant reported %.6f ms", id, benefit, st.FinalBenefitMs)
		}
		o.quality += q / float64(len(ids))
	}
	o.counts = []workCount{{"ticks", int64(o.ops)}, {"events_applied", events},
		{"repairs", repairs}, {"full_solves", full}, {"noops", noops}}

	reg := counterSums(mgr.Registries())
	o.layers["tenant.reconcile_ms"] = median(reconcileMs)
	o.layers["tenant.step_ms"] = median(stepMs)
	o.layers["core.repair_share"] = ratio(repairs, repairs+full)
	o.layers["netsim.delta_share"] = ratio(reg["netsim_resolve_delta_total"], reg["netsim_resolve_delta_total"]+reg["netsim_resolve_full_total"])
	o.layers["netsim.resolve_hit_ratio"] = ratio(reg["netsim_resolve_cache_hits_total"], reg["netsim_resolve_cache_hits_total"]+reg["netsim_resolve_cache_misses_total"])
	if o.table != nil {
		o.layers["tenant.analysis_ms"] = o.table.selfMs("call.Manager.Step")
	}
	o.close(mgr)
	return o, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterSums totals every counter across registries by metric name,
// whatever its labels.
func counterSums(regs []*obs.Registry) map[string]int64 {
	out := map[string]int64{}
	for _, r := range regs {
		for key, v := range r.Snapshot().Counters {
			name, _, _ := strings.Cut(key, "{")
			out[name] += int64(v)
		}
	}
	return out
}

// twin is a world rebuilt from a tenant's spec with the tenant's fault
// schedule replayed onto it: the end state the tenant's final
// configuration is judged in.
type twin struct {
	g   *topology.Graph
	d   *cloud.Deployment
	w   *netsim.World
	ugs *usergroup.Set
}

func replayTwin(spec tenant.Spec) (*twin, error) {
	gen, prof, ugCfg, err := experiments.ScaleConfig(experiments.ScalePEERING, spec.Seed)
	if err != nil {
		return nil, err
	}
	g, err := topology.Generate(gen)
	if err != nil {
		return nil, err
	}
	d, err := cloud.Build(g, 64500, prof)
	if err != nil {
		return nil, err
	}
	w, err := netsim.New(g, d, spec.Seed+2)
	if err != nil {
		return nil, err
	}
	ugs, err := usergroup.Build(g, ugCfg)
	if err != nil {
		return nil, err
	}
	sched, err := chaos.Generate(g, d, churnGenConfig(spec.Chaos.Seed, spec.Chaos.Ticks))
	if err != nil {
		return nil, err
	}
	for _, se := range sched {
		if err := w.ApplyEvent(se.Ev); err != nil {
			return nil, err
		}
	}
	return &twin{g: g, d: d, w: w, ugs: ugs}, nil
}

// twinQuality evaluates cfg on the tenant's twin world and returns its
// fraction of the possible benefit and its benefit in ms.
func twinQuality(spec tenant.Spec, cfg core.Config) (frac, benefit float64, err error) {
	tw, err := replayTwin(spec)
	if err != nil {
		return 0, 0, err
	}
	ev, err := core.Evaluate(tw.w, tw.ugs, cfg)
	if err != nil {
		return 0, 0, err
	}
	return ev.FractionOfPossible(), ev.Benefit, nil
}
