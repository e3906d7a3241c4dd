package ctl

import (
	"reflect"
	"slices"
	"testing"

	"deca/internal/obs"
	"deca/internal/serial"
	"deca/internal/transport"
)

// heartbeatPayload encodes a heartbeat the way a follower does.
func heartbeatPayload(snap MetricsSnapshot, evs []obs.Event) []byte {
	b := appendSnapshot(nil, snap)
	if len(evs) > 0 {
		b = appendEvents(b, evs)
	}
	return b
}

// FuzzDecodeHeartbeat: a heartbeat payload (snapshot, then an optional
// event batch) from any peer decodes without panicking, hanging or
// allocating past what its bytes can hold, and whatever decodes cleanly
// re-encodes to a payload that decodes to the same values.
func FuzzDecodeHeartbeat(f *testing.F) {
	f.Add(heartbeatPayload(nil, nil))
	f.Add(heartbeatPayload(MetricsSnapshot{3, -1, 1 << 40}, nil))
	f.Add(heartbeatPayload(MetricsSnapshot{7}, []obs.Event{
		{Seq: 1, Kind: obs.KindTaskFinish, Nanos: 99, Exec: 1, Stage: 3, Part: 2, Attempt: 1, Shuffle: 9, A: 5, B: 1, Key: "x/9/1/0/map"},
		{Seq: 2, Kind: obs.KindGCSample, Exec: 1, A: 5, B: 6},
	}))
	f.Add(serial.AppendUvarint(appendSnapshot(nil, nil), 1<<50))
	f.Add(serial.AppendUvarint(serial.AppendUvarint(appendSnapshot(nil, nil), 1), 1<<62))
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &dec{b: data}
		snap := decodeSnapshot(d)
		evs := decodeEvents(d)
		if len(snap) > len(data) || 2*len(evs) > len(data) {
			t.Fatalf("decoded %d values and %d events from %d bytes", len(snap), len(evs), len(data))
		}
		if !d.ok() {
			return
		}
		d2 := &dec{b: heartbeatPayload(snap, evs)}
		snap2, evs2 := decodeSnapshot(d2), decodeEvents(d2)
		if !d2.ok() || !slices.Equal(snap, snap2) || !slices.Equal(evs, evs2) {
			t.Fatalf("re-encoded heartbeat decodes to %v %v, want %v %v", snap2, evs2, snap, evs)
		}
	})
}

// FuzzDecodeTaskResult: a msgTaskDone payload from any peer decodes
// without panicking, and whatever decodes cleanly round-trips.
func FuzzDecodeTaskResult(f *testing.F) {
	for _, res := range []TaskResult{
		{OK: true, Result: []byte("partial")},
		{ErrMsg: "boom", MissingDataset: 4, MissingEpoch: 2},
		{Canceled: true, ErrMsg: "canceled by driver"},
		{ErrMsg: "lost", LostOutputs: []transport.MapOutputID{{Shuffle: 9, MapTask: 3, Reduce: 1}, {Shuffle: 9, MapTask: 4, Reduce: 1}}},
	} {
		var e enc
		appendTaskResult(&e, 17, res)
		f.Add(e.b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := &dec{b: data}
		id, res := decodeTaskResult(d)
		if !d.ok() {
			return
		}
		var e enc
		appendTaskResult(&e, id, res)
		d2 := &dec{b: e.b}
		id2, res2 := decodeTaskResult(d2)
		if !d2.ok() || id2 != id || !reflect.DeepEqual(res2, res) {
			t.Fatalf("re-encoded result decodes to %d %+v, want %d %+v", id2, res2, id, res)
		}
	})
}
