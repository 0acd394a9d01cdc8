package shardproto

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeMessage runs every protocol decoder over arbitrary bytes:
// no input may panic, and any input a decoder accepts must re-encode
// and re-decode to the same message (decode is a retraction of
// encode, so a coordinator and a worker can never disagree about an
// accepted message's meaning). The committed corpus seeds valid
// messages of each type plus truncations and hostile shapes.
func FuzzDecodeMessage(f *testing.F) {
	for _, seed := range []string{
		`{"slots": 4}`,
		`{"slots": 4, "version": "krum-store-v1"}`,
		`{"slots": 4, "version": "krum-store-v2", "kernel": "fma4"}`,
		`{"slots": 4, "version": "krum-store-v2", "kernel": ""}`,
		`{"worker_id": "w1", "token": "c0ffee", "lease_millis": 10000}`,
		`{"worker_id": "w1", "token": "c0ffee"}`,
		`{"worker_id": "w1"}`,
		`{}`,
		`{"task": {"id": "t1", "spec": {"workload": "gmm(k=3,dim=6)", "rule": "krum", "schedule": "const(gamma=0.1)", "n": 9, "f": 2, "rounds": 8, "batch_size": 8, "seed": 7}}}`,
		// The two "screened" seeds name a removed spec field: the
		// strict decoders must reject them.
		`{"task": {"id": "t2", "spec": {"workload": "gmm(k=3,dim=6)", "rule": "krum", "schedule": "const(gamma=0.1)", "n": 9, "f": 2, "rounds": 8, "batch_size": 8, "seed": 7, "incremental": true, "screened": true}}}`,
		`{"task": {"id": "t3", "spec": {"workload": "gmm(k=3,dim=6)", "rule": "krum", "schedule": "const(gamma=0.1)", "n": 9, "f": 2, "rounds": 8, "batch_size": 8, "seed": 7, "screened": false}}}`,
		`{"task": {"id": "t4", "spec": {"workload": "gmm(k=3,dim=6)", "rule": "krum", "schedule": "const(gamma=0.1)", "n": 9, "f": 2, "rounds": 8, "batch_size": 8, "seed": 7, "incremental": true, "arrival": "bounded(tau=3)"}}}`,
		`{"worker_id": "w1", "token": "c0ffee", "max_tasks": 8}`,
		`{"worker_id": "w1", "token": "c0ffee", "max_tasks": -1}`,
		`{"tasks": [{"id": "t1", "spec": {"rule": "krum", "n": 9, "f": 2}}, {"id": "t2", "spec": {"rule": "krum", "n": 9, "f": 2}}]}`,
		`{"task": {"id": "t1", "spec": {"rule": "krum", "n": 9, "f": 2}}, "tasks": [{"id": "t2", "spec": {"rule": "krum", "n": 9, "f": 2}}]}`,
		`{"worker_id": "w1", "token": "c0ffee", "task_id": "t1"}`,
		`{"worker_id": "w1", "token": "c0ffee", "task_ids": ["t1", "t2", "t3"]}`,
		`{"worker_id": "w1", "token": "c0ffee", "task_ids": [""]}`,
		`{"worker_id": "w1", "token": "c0ffee", "task_id": "t1", "result": {"history": []}}`,
		`{"worker_id": "w1", "token": "c0ffee", "task_id": "t1", "error": "bad spec"}`,
		`{"worker_id": "w`,
		`{"worker_id": "w1", "admin": true}`,
		`[1,2,3]`,
		`null`,
		"\x00\xff\xfe",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if m, err := DecodeJoinRequest(data); err == nil {
			reDecode(t, m, func(b []byte) (JoinRequest, error) { return DecodeJoinRequest(b) })
		}
		if m, err := DecodeJoinResponse(data); err == nil {
			reDecode(t, m, func(b []byte) (JoinResponse, error) { return DecodeJoinResponse(b) })
		}
		if m, err := DecodePollRequest(data); err == nil {
			reDecode(t, m, func(b []byte) (PollRequest, error) { return DecodePollRequest(b) })
		}
		if m, err := DecodePollResponse(data); err == nil {
			reDecode(t, m, func(b []byte) (PollResponse, error) { return DecodePollResponse(b) })
		}
		if m, err := DecodeHeartbeatRequest(data); err == nil {
			reDecode(t, m, func(b []byte) (HeartbeatRequest, error) { return DecodeHeartbeatRequest(b) })
		}
		if m, err := DecodeResultRequest(data); err == nil {
			reDecode(t, m, func(b []byte) (ResultRequest, error) { return DecodeResultRequest(b) })
		}
	})
}

// reDecode asserts the accepted message survives encode → decode →
// encode byte-stably (RawMessage fields make reflect.DeepEqual too
// strict about insignificant whitespace, so stability is asserted on
// the re-encoded bytes).
func reDecode[T any](t *testing.T, m T, decode func([]byte) (T, error)) {
	t.Helper()
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatalf("re-encoding accepted message %+v: %v", m, err)
	}
	again, err := decode(blob)
	if err != nil {
		t.Fatalf("re-decoding %s: %v", blob, err)
	}
	blob2, err := json.Marshal(again)
	if err != nil {
		t.Fatalf("re-encoding twice: %v", err)
	}
	if string(blob) != string(blob2) {
		t.Fatalf("unstable round trip: %s != %s", blob, blob2)
	}
}
