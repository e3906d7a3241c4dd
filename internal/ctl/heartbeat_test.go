package ctl

import (
	"net"
	"testing"
	"time"

	"deca/internal/obs"
)

// beat is one decoded heartbeat frame a fake driver observed.
type beat struct {
	snap MetricsSnapshot
	evs  []obs.Event
}

// tickingRuntime is a Runtime whose counters advance on every Snapshot
// call — the shape of an executor mid-job — and whose recorder backs
// DrainEvents, so heartbeats exercise the real event-shipping path.
type tickingRuntime struct {
	n   int64
	rec *obs.Recorder
}

func (r *tickingRuntime) RunTask(string, int, int, int, <-chan struct{}) TaskResult {
	return TaskResult{OK: true}
}
func (r *tickingRuntime) MaterializeDataset(int, int) {}
func (r *tickingRuntime) ReleaseDataset(int, int)     {}
func (r *tickingRuntime) Snapshot() MetricsSnapshot {
	r.n += 7
	return MetricsSnapshot{
		slotRising:     r.n,
		slotNonFalling: 2 * r.n,
		slotConstant:   64,
		slotGauge:      r.n % 3, // free to fluctuate
	}
}

func (r *tickingRuntime) DrainEvents(max int) []obs.Event { return r.rec.Drain(max) }

// Slots of tickingRuntime's snapshot. The vector is opaque to ctl; these
// stand for a counter, a byte counter, a resident-bytes gauge that holds
// still and a gauge that moves both ways.
const (
	slotRising = iota
	slotNonFalling
	slotConstant
	slotGauge
)

// at reads a slot, as zero past the end of the vector (a heartbeat sent
// before the runtime was set carries none).
func at(s MetricsSnapshot, slot int) int64 {
	if slot < len(s) {
		return s[slot]
	}
	return 0
}

// fakeDriver accepts one follower handshake and decodes its heartbeat
// stream onto a channel — the driver side of the wire contract, small
// enough to assert against frame by frame.
func fakeDriver(t *testing.T, ln net.Listener, beats chan<- beat) {
	t.Helper()
	c, err := ln.Accept()
	if err != nil {
		return
	}
	rc := newRPCConn(c)
	typ, _, err := rc.read()
	if err != nil || typ != msgHello {
		t.Errorf("first frame: type %d, err %v (want hello)", typ, err)
		rc.close()
		return
	}
	var e enc
	e.int(2) // numExecutors
	if err := rc.send(msgWelcome, e.b); err != nil {
		t.Errorf("welcome: %v", err)
		rc.close()
		return
	}
	for {
		typ, payload, err := rc.read()
		if err != nil {
			return // follower closed
		}
		if typ != msgHeartbeat {
			continue
		}
		d := &dec{b: payload}
		snap := decodeSnapshot(d)
		evs := decodeEvents(d)
		if !d.ok() {
			t.Error("heartbeat frame failed to decode")
			return
		}
		beats <- beat{snap: snap, evs: evs}
	}
}

// TestHeartbeatCountersMonotonic: mid-job heartbeats each carry a fresh
// snapshot, so the counter values the driver observes rise monotonically
// beat over beat — the rolling view the ops plane reads is never stale
// beyond one interval, and never regresses.
func TestHeartbeatCountersMonotonic(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	beats := make(chan beat, 64)
	go fakeDriver(t, ln, beats)

	f, err := NewFollower(FollowerConfig{
		DriverAddr:        ln.Addr().String(),
		ID:                0,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt := &tickingRuntime{rec: obs.NewRecorder(0)}
	f.SetRuntime(rt)

	var got []beat
	deadline := time.After(5 * time.Second)
	for len(got) < 4 {
		select {
		case b := <-beats:
			got = append(got, b)
		case <-deadline:
			t.Fatalf("only %d heartbeats arrived", len(got))
		}
	}
	for i := 1; i < len(got); i++ {
		prev, cur := got[i-1].snap, got[i].snap
		if at(cur, slotRising) <= at(prev, slotRising) {
			t.Errorf("beat %d: rising counter %d -> %d, want strictly increasing",
				i, at(prev, slotRising), at(cur, slotRising))
		}
		if at(cur, slotNonFalling) < at(prev, slotNonFalling) {
			t.Errorf("beat %d: byte counter regressed %d -> %d",
				i, at(prev, slotNonFalling), at(cur, slotNonFalling))
		}
	}
	if at(got[0].snap, slotConstant) != 64 {
		t.Errorf("constant slot = %d, want 64", at(got[0].snap, slotConstant))
	}
}

// TestHeartbeatShipsRecordedEvents: events an executor's recorder holds
// ride the next heartbeat with their fields intact, and a drained
// recorder ships nothing — each event crosses the control stream exactly
// once.
func TestHeartbeatShipsRecordedEvents(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	beats := make(chan beat, 64)
	go fakeDriver(t, ln, beats)

	f, err := NewFollower(FollowerConfig{
		DriverAddr:        ln.Addr().String(),
		ID:                1,
		HeartbeatInterval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rt := &tickingRuntime{rec: obs.NewRecorder(0)}
	want := obs.Event{
		Kind: obs.KindTaskFinish, Exec: 1, Stage: 3, Part: 2, Attempt: 1,
		Shuffle: 9, A: 1234, B: 1, Key: "x/9/1/0/map",
	}
	rt.rec.Record(want)
	rt.rec.Record(obs.Event{Kind: obs.KindGCSample, Exec: 1, A: 5, B: 6})
	f.SetRuntime(rt)

	var shipped []obs.Event
	deadline := time.After(5 * time.Second)
	for len(shipped) < 2 {
		select {
		case b := <-beats:
			shipped = append(shipped, b.evs...)
		case <-deadline:
			t.Fatalf("events never arrived; got %d", len(shipped))
		}
	}
	var found bool
	for _, ev := range shipped {
		if ev.Kind == want.Kind && ev.Key == want.Key {
			found = true
			ev.Seq, ev.Nanos = want.Seq, want.Nanos // recorder-stamped
			if ev != want {
				t.Errorf("shipped event = %+v, want %+v", ev, want)
			}
		}
	}
	if !found {
		t.Fatalf("recorded event never shipped; got %+v", shipped)
	}

	// The recorder is drained: later heartbeats must carry no events.
	drainDeadline := time.After(5 * time.Second)
	for i := 0; i < 3; {
		select {
		case b := <-beats:
			i++
			if len(b.evs) != 0 {
				t.Errorf("drained recorder shipped %d events again", len(b.evs))
			}
		case <-drainDeadline:
			t.Fatal("heartbeats stopped")
		}
	}
}
