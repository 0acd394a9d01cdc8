package shardproto

import (
	"errors"
	"strings"
	"testing"

	"krum/scenario"
)

// TestLegacyDistanceKnobsRejected: the removed "screened" and
// "parallel" spec fields are unknown JSON keys now, and every strict
// decoder that carries a spec refuses them instead of silently running
// a cell the sender described differently. The same spec without the
// legacy key decodes cleanly through each, so the rejection is caused
// by the key alone.
func TestLegacyDistanceKnobsRejected(t *testing.T) {
	const spec = `{"workload":"gmm(k=3,dim=6)","rule":"krum","schedule":"const(gamma=0.1)",` +
		`"n":9,"f":2,"rounds":8,"batch_size":8,"seed":7%s}`
	decoders := []struct {
		name   string
		wrap   func(spec string) string
		decode func([]byte) error
		want   error
	}{
		{
			name:   "scenario.ParseSpecJSON",
			wrap:   func(s string) string { return s },
			decode: func(b []byte) error { _, err := scenario.ParseSpecJSON(b); return err },
			want:   scenario.ErrBadSpec,
		},
		{
			name:   "scenario.ParseMatrixJSON",
			wrap:   func(s string) string { return `{"base":` + s + `,"seeds":[1,2]}` },
			decode: func(b []byte) error { _, err := scenario.ParseMatrixJSON(b); return err },
			want:   scenario.ErrBadSpec,
		},
		{
			name:   "DecodePollResponse/task",
			wrap:   func(s string) string { return `{"task":{"id":"t1","spec":` + s + `}}` },
			decode: func(b []byte) error { _, err := DecodePollResponse(b); return err },
			want:   ErrBadMessage,
		},
		{
			name:   "DecodePollResponse/tasks",
			wrap:   func(s string) string { return `{"tasks":[{"id":"t1","spec":` + s + `}]}` },
			decode: func(b []byte) error { _, err := DecodePollResponse(b); return err },
			want:   ErrBadMessage,
		},
	}
	for _, d := range decoders {
		if err := d.decode([]byte(d.wrap(strings.Replace(spec, "%s", "", 1)))); err != nil {
			t.Fatalf("%s: clean spec rejected: %v", d.name, err)
		}
		for _, legacy := range []string{`"screened":true`, `"screened":false`, `"parallel":4`, `"parallel":0`} {
			blob := d.wrap(strings.Replace(spec, "%s", ","+legacy, 1))
			err := d.decode([]byte(blob))
			if err == nil {
				t.Errorf("%s accepted legacy %s", d.name, legacy)
				continue
			}
			if !errors.Is(err, d.want) || !strings.Contains(err.Error(), "unknown field") {
				t.Errorf("%s on legacy %s: %v, want an unknown-field %v", d.name, legacy, err, d.want)
			}
		}
	}
}
