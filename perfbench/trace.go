package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"painter/internal/obs/span"
)

// Tracing is measured from outside the program. The benchmark opens its
// own span around each operation and around each public call it makes,
// and hands a span.Tracer to the program's existing hooks. The
// program's root spans take no parent, so they are nested under the
// benchmark's spans by time containment. A layer's self time is its
// span's duration minus the part its child spans cover; where sibling
// spans overlap (the parallel resolve inside core.execute), the
// overlapped interval is shared equally among them, so the self times
// of one operation always add up to its wall time.

// opRoot names the benchmark's span around one whole operation. Its
// self time is the part of the operation no other span covers: the
// unattributed remainder.
const opRoot = "bench.op"

// background names program roots that are not caused by an operation
// (the prober's periodic round trips); they are counted, never nested.
var background = map[string]bool{"tm.edge.probe": true, "tm.pop.probe": true}

// clock is the monotonic nanosecond clock shared by the benchmark's
// spans and the program's tracer, so both sets of spans line up.
type clock struct{ base time.Time }

func newClock() clock                { return clock{base: time.Now()} }
func (c clock) now() int64           { return int64(time.Since(c.base)) }
func (c clock) at(t time.Time) int64 { return int64(t.Sub(c.base)) }

// node is one span of an operation's tree.
type node struct {
	name       string
	start, end int64
	parent     int // index into the tree; -1 for the operation root
}

// opTree is one operation's spans: node 0 is the operation itself.
type opTree struct{ nodes []node }

func newOpTree(start int64) *opTree {
	return &opTree{nodes: []node{{name: opRoot, start: start, parent: -1}}}
}

// add records a finished benchmark span under parent and returns its index.
func (t *opTree) add(name string, parent int, start, end int64) int {
	t.nodes = append(t.nodes, node{name: name, start: start, end: end, parent: parent})
	return len(t.nodes) - 1
}

// adopt nests the program's finished spans into the tree. A span whose
// parent is among recs hangs under that parent; a root hangs under the
// innermost benchmark span that contains it in time. It returns the
// spans left out: background roots, and roots no span contains.
func (t *opTree) adopt(recs []span.Record) (left int) {
	bench := len(t.nodes)
	idx := make(map[uint64]int, len(recs))
	for _, r := range recs {
		t.nodes = append(t.nodes, node{name: r.Name, start: r.StartNs, end: r.StartNs + r.DurNs, parent: -2})
		idx[r.SpanID] = len(t.nodes) - 1
	}
	depth := t.depths(bench)
	for i, r := range recs {
		n := &t.nodes[bench+i]
		if p, ok := idx[r.ParentID]; ok && r.ParentID != 0 {
			n.parent = p
			continue
		}
		if background[r.Name] {
			continue
		}
		best := -1
		for b := 0; b < bench; b++ {
			if t.nodes[b].start <= n.start && n.end <= t.nodes[b].end &&
				(best < 0 || depth[b] > depth[best]) {
				best = b
			}
		}
		n.parent = best
	}
	// Drop whatever does not reach the root (background roots and
	// uncontained spans, with their descendants).
	reach := make([]bool, len(t.nodes))
	var reaches func(i int) bool
	seen := make([]bool, len(t.nodes))
	reaches = func(i int) bool {
		if i == 0 {
			return true
		}
		if seen[i] {
			return reach[i]
		}
		seen[i] = true
		p := t.nodes[i].parent
		reach[i] = p >= 0 && reaches(p)
		return reach[i]
	}
	kept := make([]int, len(t.nodes))
	out := t.nodes[:0:0]
	for i := range t.nodes {
		if reaches(i) {
			kept[i] = len(out)
			out = append(out, t.nodes[i])
		} else {
			kept[i] = -1
			left++
		}
	}
	for i := range out {
		if out[i].parent >= 0 {
			out[i].parent = kept[out[i].parent]
		}
	}
	t.nodes = out
	return left
}

// depths returns the depth of each of the first n nodes (parents
// precede children among the benchmark's own spans).
func (t *opTree) depths(n int) []int {
	d := make([]int, n)
	for i := 1; i < n; i++ {
		d[i] = d[t.nodes[i].parent] + 1
	}
	return d
}

// selfTimes attributes the operation's wall time to its spans and
// returns nanoseconds of self time per span name. Each child interval
// is first clamped into its parent's, so the values sum to the root's
// duration exactly.
func (t *opTree) selfTimes() map[string]float64 {
	n := len(t.nodes)
	order := make([]int, 0, n) // parents before children
	kids := make([][]int, n)
	for i := 1; i < n; i++ {
		kids[t.nodes[i].parent] = append(kids[t.nodes[i].parent], i)
	}
	depth := make([]int, n)
	iv := make([][2]int64, n)
	iv[0] = [2]int64{t.nodes[0].start, t.nodes[0].end}
	for q := []int{0}; len(q) > 0; q = q[1:] {
		i := q[0]
		order = append(order, i)
		for _, c := range kids[i] {
			depth[c] = depth[i] + 1
			s, e := t.nodes[c].start, t.nodes[c].end
			s = max(s, iv[i][0])
			e = min(max(e, s), iv[i][1])
			s = min(s, e)
			iv[c] = [2]int64{s, e}
			q = append(q, c)
		}
	}
	type ev struct {
		at    int64
		start bool
		depth int
		node  int
	}
	evs := make([]ev, 0, 2*n)
	for _, i := range order {
		evs = append(evs, ev{iv[i][0], true, depth[i], i}, ev{iv[i][1], false, depth[i], i})
	}
	sort.Slice(evs, func(a, b int) bool {
		x, y := evs[a], evs[b]
		if x.at != y.at {
			return x.at < y.at
		}
		if x.start != y.start {
			return x.start
		}
		if x.start {
			return x.depth < y.depth
		}
		return x.depth > y.depth
	})
	activeKids := make([]int, n)
	frontier := map[int]bool{}
	self := make([]float64, n)
	for k, e := range evs {
		p := t.nodes[e.node].parent
		if e.start {
			if p >= 0 {
				activeKids[p]++
				delete(frontier, p)
			}
			frontier[e.node] = true
		} else {
			delete(frontier, e.node)
			if p >= 0 {
				activeKids[p]--
				if activeKids[p] == 0 {
					frontier[p] = true
				}
			}
		}
		if k+1 < len(evs) && len(frontier) > 0 {
			share := float64(evs[k+1].at-e.at) / float64(len(frontier))
			for f := range frontier {
				self[f] += share
			}
		}
	}
	out := map[string]float64{}
	for i, s := range self {
		out[t.nodes[i].name] += s
	}
	return out
}

// layerTable accumulates self time per span name over operations.
type layerTable struct {
	ops    int
	wallNs float64
	selfNs map[string]float64
	spans  map[string]int
	// left counts program spans not nested under any operation.
	left int
}

func newLayerTable() *layerTable {
	return &layerTable{selfNs: map[string]float64{}, spans: map[string]int{}}
}

// add folds one finished operation tree into the table.
func (lt *layerTable) add(t *opTree) {
	lt.ops++
	lt.wallNs += float64(t.nodes[0].end - t.nodes[0].start)
	for name, ns := range t.selfTimes() {
		lt.selfNs[name] += ns
	}
	for _, n := range t.nodes {
		lt.spans[n.name]++
	}
}

// selfMs is the mean self time per operation of the named span, in ms.
func (lt *layerTable) selfMs(name string) float64 {
	if lt.ops == 0 {
		return 0
	}
	return lt.selfNs[name] / float64(lt.ops) / 1e6
}

// write prints the self-time table: every layer's mean self time per
// operation and its share of the mean operation wall time.
func (lt *layerTable) write(w io.Writer) {
	if lt.ops == 0 {
		return
	}
	names := make([]string, 0, len(lt.selfNs))
	for n := range lt.selfNs {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return lt.selfNs[names[i]] > lt.selfNs[names[j]] })
	wall := lt.wallNs / float64(lt.ops) / 1e6
	fmt.Fprintf(w, "self time per operation (%d operations, mean wall %.4f ms):\n", lt.ops, wall)
	fmt.Fprintf(w, "  %-32s %12s %10s %8s\n", "span", "self ms/op", "spans/op", "share")
	sum := 0.0
	for _, n := range names {
		ms := lt.selfMs(n)
		sum += ms
		label := n
		if n == opRoot {
			label = "unattributed (" + opRoot + ")"
		}
		fmt.Fprintf(w, "  %-32s %12.4f %10.1f %7.1f%%\n", label, ms,
			float64(lt.spans[n])/float64(lt.ops), 100*ms/wall)
	}
	fmt.Fprintf(w, "  %-32s %12.4f   (wall %.4f ms; %d program spans outside any operation)\n", "sum", sum, wall, lt.left)
}

// spanSource wraps the program's tracer. Its flight recorder is sized
// so it never wraps during a run; take returns the spans finished
// since the previous call and fails if any were overwritten.
type spanSource struct {
	tr       *span.Tracer
	consumed int
}

// recorderSpans is the flight-recorder capacity for a traced run.
const recorderSpans = 1 << 18

func newSpanSource(c clock) *spanSource {
	return &spanSource{tr: span.New(span.Config{Ring: recorderSpans, Clock: c.now, Process: "perfbench"})}
}

func (s *spanSource) take() ([]span.Record, error) {
	rec := s.tr.Recorder()
	snap := rec.Snapshot()
	if total := rec.Total(); total > uint64(rec.Cap()) {
		return nil, fmt.Errorf("span recorder dropped %d of %d spans (capacity %d)",
			total-uint64(rec.Cap()), total, rec.Cap())
	}
	fresh := snap[s.consumed:]
	s.consumed = len(snap)
	return fresh, nil
}

// check confirms at the end of a run that the recorder retained every
// span it was ever given.
func (s *spanSource) check() (total uint64, err error) {
	rec := s.tr.Recorder()
	snap := rec.Snapshot()
	total = rec.Total()
	if total != uint64(len(snap)) {
		return total, fmt.Errorf("span recorder retained %d of %d spans", len(snap), total)
	}
	return total, nil
}

// attr returns the value of key in attrs ("" when absent).
func attr(attrs []span.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}
