package main

import (
	"math"
	"testing"

	"painter/internal/obs/span"
)

func TestSelfTimesSumToWall(t *testing.T) {
	// op [0,100]: call [10,90] holds a program root [20,80] with two
	// overlapping children [30,60] and [40,70].
	tr := newOpTree(0)
	tr.nodes[0].end = 100
	tr.add("call", 0, 10, 90)
	left := tr.adopt([]span.Record{
		{SpanID: 1, Name: "root", StartNs: 20, DurNs: 60},
		{SpanID: 2, ParentID: 1, Name: "a", StartNs: 30, DurNs: 30},
		{SpanID: 3, ParentID: 1, Name: "b", StartNs: 40, DurNs: 30},
		{SpanID: 4, Name: "tm.edge.probe", StartNs: 50, DurNs: 1},
		{SpanID: 5, Name: "outside", StartNs: 95, DurNs: 10},
	})
	if left != 2 {
		t.Fatalf("left out %d spans, want 2 (background root and uncontained root)", left)
	}
	self := tr.selfTimes()
	want := map[string]float64{
		opRoot: 20,      // [0,10] and [90,100]
		"call": 20,      // [10,20] and [80,90]
		"root": 20,      // [20,30] and [70,80]
		"a":    10 + 10, // [30,40] alone, half of [40,60]
		"b":    10 + 10, // half of [40,60], [60,70] alone
	}
	sum := 0.0
	for name, w := range want {
		if math.Abs(self[name]-w) > 1e-9 {
			t.Errorf("self[%s] = %g, want %g", name, self[name], w)
		}
	}
	for _, v := range self {
		sum += v
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("self times sum to %g, want the wall time 100", sum)
	}
}

func TestSelfTimesClampChildrenIntoParent(t *testing.T) {
	tr := newOpTree(0)
	tr.nodes[0].end = 50
	c := tr.add("child", 0, 10, 40)
	tr.add("late", c, 30, 60) // finishes after its parent
	self := tr.selfTimes()
	if self["late"] != 10 || self["child"] != 20 || self[opRoot] != 20 {
		t.Errorf("self = %v", self)
	}
}

func TestLayerTableMeansPerOperation(t *testing.T) {
	lt := newLayerTable()
	for i := 0; i < 4; i++ {
		tr := newOpTree(0)
		tr.nodes[0].end = 4e6
		tr.add("call", 0, 0, 3e6)
		lt.add(tr)
	}
	if got := lt.selfMs("call"); got != 3 {
		t.Errorf("selfMs(call) = %g, want 3", got)
	}
	if got := lt.selfMs(opRoot); got != 1 {
		t.Errorf("unattributed = %g, want 1", got)
	}
}

func TestSpanSourceDetectsDrops(t *testing.T) {
	src := &spanSource{tr: span.New(span.Config{Ring: 4})}
	for i := 0; i < 3; i++ {
		src.tr.StartRoot("x").Finish()
	}
	recs, err := src.take()
	if err != nil || len(recs) != 3 {
		t.Fatalf("take = %d spans, %v", len(recs), err)
	}
	src.tr.StartRoot("y").Finish()
	if recs, err = src.take(); err != nil || len(recs) != 1 || recs[0].Name != "y" {
		t.Fatalf("second take = %v, %v", recs, err)
	}
	if _, err := src.check(); err != nil {
		t.Fatalf("check with nothing dropped: %v", err)
	}
	src.tr.StartRoot("z").Finish()
	if _, err := src.take(); err == nil {
		t.Fatal("take after the ring wrapped reported no drop")
	}
	if _, err := src.check(); err == nil {
		t.Fatal("check after the ring wrapped reported no drop")
	}
}
