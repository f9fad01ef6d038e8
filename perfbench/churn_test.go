package main

import (
	"io"
	"log/slog"
	"math"
	"testing"
	"time"

	"painter/internal/core"
	"painter/internal/tenant"
)

// TestChurnFinalConfigNearColdSolve drives two churn tenants through
// short fault schedules and checks each final configuration against a
// cold solve of the twin world replayed to the same end state: the
// repaired configuration must keep within 1% of the cold solve's
// benefit, and the twin must reproduce the benefit the tenant reported.
func TestChurnFinalConfigNearColdSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("peering-scale tenants")
	}
	ids, specs := churnSpecs(5, 1)
	ids, specs = ids[:2], specs[:2]
	mgr := tenant.NewManager(tenant.Params{
		ReconcileInterval: time.Hour,
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer mgr.Close()
	for i, id := range ids {
		specs[i].Chaos.Ticks = 12
		if _, err := mgr.Apply(id, specs[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	mgr.Reconcile()
	for i, id := range ids {
		st, ok := mgr.Status(id)
		if !ok || st.Error != "" {
			t.Fatalf("tenant %s: %+v", id, st)
		}
		for k := 0; k < st.ScheduleTicks; k++ {
			if _, err := mgr.Step(id); err != nil {
				t.Fatalf("tenant %s step %d: %v", id, k, err)
			}
		}
		if st, _ = mgr.Status(id); !st.ScheduleDone || st.Phase == tenant.PhaseFailed {
			t.Fatalf("tenant %s after its schedule: %+v", id, st)
		}
		final, _ := mgr.Config(id)

		tw, err := replayTwin(specs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Evaluate(tw.w, tw.ugs, final)
		if err != nil {
			t.Fatal(err)
		}
		if got.Benefit != st.FinalBenefitMs {
			t.Errorf("tenant %s: twin benefit %.9f, tenant reported %.9f", id, got.Benefit, st.FinalBenefitMs)
		}
		ctrl, err := core.NewController(tw.w, tw.ugs, core.ControllerParams{Solver: core.DefaultParams(st.Budget)})
		if err != nil {
			t.Fatal(err)
		}
		cold, err := core.Evaluate(tw.w, tw.ugs, ctrl.Config())
		ctrl.Stop()
		if err != nil {
			t.Fatal(err)
		}
		if diff := math.Abs(got.Benefit - cold.Benefit); diff > 0.01*math.Abs(cold.Benefit) {
			t.Errorf("tenant %s: final benefit %.3f ms, cold solve %.3f ms: off by %.2f%%",
				id, got.Benefit, cold.Benefit, 100*diff/math.Abs(cold.Benefit))
		}
		t.Logf("tenant %s: %d ticks, final %.3f ms, cold %.3f ms, fraction %.4f",
			id, st.ScheduleTicks, got.Benefit, cold.Benefit, got.FractionOfPossible())
	}
}
