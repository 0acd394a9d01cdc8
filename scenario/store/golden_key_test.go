package store

import (
	"encoding/json"
	"testing"

	"krum/internal/vec"
	"krum/scenario"
)

// goldenKeys pins the content address of three representative cells in
// each kernel order family. The specs are decoded with the lenient
// json.Unmarshal on purpose: the "parallel" cell carries a key that
// once set the removed goroutine-count field, which Canonical used to
// clear and which is now simply dropped — either way it must hash to
// the same address. A change to any pinned value means existing store
// entries would stop being served: that needs a Version bump, not a
// new pin.
var goldenKeys = []struct {
	name  string
	spec  string
	pair2 string
	fma4  string
}{
	{
		name: "sync",
		spec: `{"workload":"gmm(k=3,dim=6,radius=4,sigma=0.5)","rule":"krum",
			"attack":"gaussian(sigma=200)","schedule":"inverset(gamma=0.5,power=0.75,t0=50)",
			"n":9,"f":2,"rounds":12,"batch_size":8,"seed":11,"eval_every":6,"eval_batch":64}`,
		pair2: "sha256:c1cade3c6dd73e4d5a4e384eefa1b684546b4126d1800d69fec52c17043a5dce",
		fma4:  "sha256:9529f77bcf580ed0132082656c12012270ddbc3f2f20a718559c91979dca7476",
	},
	{
		name: "incremental-async",
		spec: `{"workload":"gmm(k=3,dim=6)","rule":"multikrum(m=3)",
			"schedule":"const(gamma=0.1)","n":9,"f":2,"rounds":20,"batch_size":8,"seed":7,
			"incremental":true,"arrival":"bernoulli(p=0.5,tau=4)"}`,
		pair2: "sha256:d549dfb3cc97c37e904eb9994496d13b698f745989f3ce03cc149acb905bdc44",
		fma4:  "sha256:5e4897ece07f2198c341249aa0cc36dcd97ae4adfcab085dd9faa023f3984cc6",
	},
	{
		name: "parallel",
		spec: `{"workload":"mnist(size=10,hidden=16)","rule":"bulyan",
			"attack":"omniscient","schedule":"const(gamma=0.05)",
			"n":15,"f":3,"rounds":30,"batch_size":4,"seed":3,"parallel":4}`,
		pair2: "sha256:6a56c7d282dca7ef0c2c1b580db4bdb9e3b17998f1fbd04dd0d751ca6b0ef4dd",
		fma4:  "sha256:59510aeb037143bea19b951a52d8209f6a13bb9b2e7d5c5d2cd82f7cb04d12db",
	},
}

// TestGoldenKeys proves that the store keyspace is stable: each pinned
// spec hashes to its recorded address under both order families, and
// Key agrees with the pin for the active family.
func TestGoldenKeys(t *testing.T) {
	for _, g := range goldenKeys {
		var s scenario.Spec
		if err := json.Unmarshal([]byte(g.spec), &s); err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		c, err := Canonical(s)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		want := map[string]string{"pair2": g.pair2, "fma4": g.fma4}
		for _, order := range []string{"pair2", "fma4"} {
			got, err := keyOfCanonicalWith(order, c)
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, order, err)
			}
			if got != want[order] {
				t.Errorf("%s/%s: key %s, pinned %s", g.name, order, got, want[order])
			}
		}
		if got := mustKey(t, s); got != want[vec.KernelOrder()] {
			t.Errorf("%s: Key %s, pinned %s for active order %s", g.name, got, want[vec.KernelOrder()], vec.KernelOrder())
		}
	}
}
