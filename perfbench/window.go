package main

import "encoding/binary"

// window is the closed loop's in-flight table: at most len(slots)
// operations are outstanding, and an operation that has waited longer
// than the loss timeout is written off as lost so the loop keeps its
// full window instead of shrinking by one slot per dropped datagram.
// It is owned by one goroutine.
type window struct {
	slots []slot
	free  []int
}

// slot is one outstanding operation.
type slot struct {
	busy     bool
	seq      uint64
	flow     int
	sentAt   int64 // clock ns before the send call
	sendDone int64 // clock ns after it returned
}

func newWindow(n int) *window {
	w := &window{slots: make([]slot, n), free: make([]int, n)}
	for i := range w.free {
		w.free[i] = n - 1 - i
	}
	return w
}

// inFlight is the number of outstanding operations.
func (w *window) inFlight() int { return len(w.slots) - len(w.free) }

// acquire claims a slot for operation seq; ok is false when the window
// is full.
func (w *window) acquire(seq uint64, flow int, sentAt int64) (i int, ok bool) {
	if len(w.free) == 0 {
		return 0, false
	}
	i = w.free[len(w.free)-1]
	w.free = w.free[:len(w.free)-1]
	w.slots[i] = slot{busy: true, seq: seq, flow: flow, sentAt: sentAt}
	return i, true
}

// complete releases slot i if it still holds operation seq. A reply
// for an operation already written off, or one that names a slot it
// never held, returns ok == false and leaves the window unchanged.
func (w *window) complete(i int, seq uint64) (s slot, ok bool) {
	if i < 0 || i >= len(w.slots) || !w.slots[i].busy || w.slots[i].seq != seq {
		return slot{}, false
	}
	s = w.slots[i]
	w.slots[i] = slot{}
	w.free = append(w.free, i)
	return s, true
}

// expire writes off every operation sent before deadline and returns
// how many it released.
func (w *window) expire(deadline int64) (lost int) {
	for i := range w.slots {
		if w.slots[i].busy && w.slots[i].sentAt < deadline {
			w.slots[i] = slot{}
			w.free = append(w.free, i)
			lost++
		}
	}
	return lost
}

// A data payload names its packet: sequence number, a tag (the tunnel's
// window slot, the failover cycle) and flow index, followed by a filler
// derived from all three so a corrupted or misrouted echo cannot pass
// the check.
const payloadLen = 24

func encodePayload(b []byte, seq uint64, tag, flow int) []byte {
	b = b[:payloadLen]
	binary.BigEndian.PutUint64(b[0:], seq)
	binary.BigEndian.PutUint32(b[8:], uint32(tag))
	binary.BigEndian.PutUint32(b[12:], uint32(flow))
	binary.BigEndian.PutUint64(b[16:], filler(seq, tag, flow))
	return b
}

// decodePayload parses a payload; ok is false when its length or
// filler is wrong.
func decodePayload(b []byte) (seq uint64, tag, flow int, ok bool) {
	if len(b) != payloadLen {
		return 0, 0, 0, false
	}
	seq = binary.BigEndian.Uint64(b[0:])
	tag = int(binary.BigEndian.Uint32(b[8:]))
	flow = int(binary.BigEndian.Uint32(b[12:]))
	return seq, tag, flow, binary.BigEndian.Uint64(b[16:]) == filler(seq, tag, flow)
}

func filler(seq uint64, tag, flow int) uint64 {
	z := seq*0x9e3779b97f4a7c15 ^ uint64(tag)<<32 ^ uint64(flow)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}
