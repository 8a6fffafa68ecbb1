package congest

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"
)

// resultDigests pins sha256 of the canonical Result JSON (json.Marshal of
// the Result) for jobs covering every Broadcast caller — the two-hop
// listers in CONGEST and broadcast-CONGEST mode, the counter, the finder,
// the lister and its A2 and A(X,r) building blocks — plus clique-mode
// jobs. The values were recorded by the engine that expanded every
// CONGEST-mode Broadcast into one Send per neighbor, so they hold the
// engine's channel representation to the determinism contract across
// versions, not just within one.
var resultDigests = []struct {
	name   string
	spec   JobSpec
	digest string
}{
	{"twohop", digestSpec("twohop", 2), "82740f3fde70c0d00b1c0caa62d72befe1aaf1e6efd3b1ce29fcca0f8da1c516"},
	{"twohop-B1", digestSpec("twohop", 1), "512a197f5db7eb8b64cf3cd5fb8e65ce98b7ba44aca3fd156e41c26f37b35889"},
	{"twohop-B3", digestSpec("twohop", 3), "86f7ec9d54e51d50a7abf57bc3a4ff2c5ab6af6d08e7a80d38735b630a1522a5"},
	{"bcast-twohop", digestSpec("bcast-twohop", 2), "e8484631ceb91e4c5fd631519288931e1d35912f6a6d2aec5e1c705f48395672"},
	{"count", digestSpec("count", 2), "bcdd277d2c14bb2ffb0b3f4ac190b7187a07f4492e915e1fd26bf92961769ee1"},
	{"count-B1", digestSpec("count", 1), "5116aeb0f8e7339400cfb5207c2dd82229d5c3e2ff41671505bde322069af149"},
	{"count-B3", digestSpec("count", 3), "5511e9e39771085423c76c7a35fa0ea039c1bb64a113e76ce0b4be30217416de"},
	{"find", digestSpec("find", 2), "20cf363c0b27690818dcb96f5c5dd5ad5d167d33d1715e20e38f6c2802ca2d4c"},
	{"list", digestSpec("list", 2), "5bba27fa809d8c861ab229fd9f7b9b178cd7f8af2696949071a67523e160bcfb"},
	{"list-B1", digestSpec("list", 1), "c329af799f7eab441b46bc0262b9d108211b3a65f53404c5612b67ecb7dcf15d"},
	{"a2", digestSpec("a2", 2), "32136cef944c9bda809bdbef15022d1b6351e7ccfbefffc91f4d5ea24699bfb2"},
	{"axr", digestSpec("axr", 2), "2810674623a6da685e7e8db730a0f93e622b204618c4d2e7e354c87bfb26c94c"},
	{"dolev", digestSpec("dolev", 2), "030fe3c878bdc270100c58f0864b2731560946b6fc6bf950de431dc51a4b483e"},
	{"dolev-relay", digestSpec("dolev-relay", 3), "8a3ac6b8120851cb455cfdfe467347b5c00e9bb17df8d19e25d9d98aac354bb1"},
}

func digestSpec(algo string, b int) JobSpec {
	return JobSpec{
		Graph:     GraphSpec{Generator: "gnp", N: 48, P: 0.3, Seed: 19},
		Algo:      algo,
		Bandwidth: b,
		Seed:      29,
	}
}

func resultDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	res, err := Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	res.Meta.Parallel = false // placement provenance, not part of the pin
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestResultDigestsPinned runs each pinned job sequentially, in parallel
// and sharded; every placement must reproduce the recorded bytes.
func TestResultDigestsPinned(t *testing.T) {
	for _, tc := range resultDigests {
		t.Run(tc.name, func(t *testing.T) {
			for _, p := range []struct {
				parallel bool
				shards   int
			}{{false, 0}, {true, 0}, {false, 3}, {true, 3}} {
				spec := tc.spec
				spec.Parallel, spec.Shards = p.parallel, p.shards
				if got := resultDigest(t, spec); got != tc.digest {
					t.Errorf("parallel=%v shards=%d: result sha256 %s, pinned %s", p.parallel, p.shards, got, tc.digest)
				}
			}
		})
	}
}
