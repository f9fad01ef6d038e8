package main

import "testing"

func TestWindowBoundsInFlight(t *testing.T) {
	w := newWindow(2)
	if _, ok := w.acquire(0, 0, 0); !ok {
		t.Fatal("first acquire failed")
	}
	if _, ok := w.acquire(1, 1, 0); !ok {
		t.Fatal("second acquire failed")
	}
	if _, ok := w.acquire(2, 2, 0); ok {
		t.Fatal("window of 2 accepted a third operation")
	}
	if w.inFlight() != 2 {
		t.Fatalf("inFlight = %d, want 2", w.inFlight())
	}
}

func TestWindowWritesOffLostOperations(t *testing.T) {
	w := newWindow(4)
	s0, _ := w.acquire(10, 0, 100)
	s1, _ := w.acquire(11, 1, 200)
	s2, _ := w.acquire(12, 2, 300)
	if _, ok := w.complete(s1, 11); !ok {
		t.Fatal("completing an outstanding operation failed")
	}
	// Everything sent before 250 is lost: only seq 10, since 11 is done.
	if lost := w.expire(250); lost != 1 {
		t.Fatalf("expire(250) = %d, want 1", lost)
	}
	if w.inFlight() != 1 {
		t.Fatalf("inFlight after expiry = %d, want 1", w.inFlight())
	}
	// A late echo of the written-off operation must not complete
	// anything, even after its slot was reused.
	if _, ok := w.complete(s0, 10); ok {
		t.Fatal("late echo of a lost operation completed")
	}
	s3, _ := w.acquire(13, 3, 400)
	if _, ok := w.complete(s3, 10); ok {
		t.Fatal("stale sequence number completed a reused slot")
	}
	if s, ok := w.complete(s2, 12); !ok || s.flow != 2 || s.sentAt != 300 {
		t.Fatalf("complete(12) = %+v, %v", s, ok)
	}
	if _, ok := w.complete(s2, 12); ok {
		t.Fatal("duplicate echo completed twice")
	}
	if _, ok := w.complete(-1, 0); ok {
		t.Fatal("out-of-range slot completed")
	}
}

func TestPayloadRoundTripAndCorruption(t *testing.T) {
	buf := make([]byte, payloadLen)
	b := encodePayload(buf, 123456789, 3, 19999)
	seq, slot, flow, ok := decodePayload(append([]byte(nil), b...))
	if !ok || seq != 123456789 || slot != 3 || flow != 19999 {
		t.Fatalf("decode = %d %d %d %v", seq, slot, flow, ok)
	}
	for i := range b {
		c := append([]byte(nil), b...)
		c[i] ^= 0x40
		if _, _, _, ok := decodePayload(c); ok {
			t.Errorf("flipping byte %d went undetected", i)
		}
	}
	if _, _, _, ok := decodePayload(b[:payloadLen-1]); ok {
		t.Error("truncated payload accepted")
	}
}
