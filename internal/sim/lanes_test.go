package sim

// Broadcast-lane tests. In the unicast modes a Broadcast is stored once per
// sender (its lane) instead of once per out-channel; these tests pin that
// the representation is unobservable: exact inboxes for mixed broadcast and
// unicast traffic (including deliveries that span the lane tail and the
// channel's own queue), a differential check against a naive per-channel
// FIFO model, result digests and snapshot bytes pinned across versions,
// and cut-and-resume with lane words in flight, for B in {1,2,3} and every
// placement.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// laneSend is one Send or Broadcast call as the node issued it; to == -1
// marks a Broadcast. round is -1 for sends issued from Init.
type laneSend struct {
	round, to int
	words     []Word
}

// laneRecv is one delivery as the node received it.
type laneRecv struct {
	round, from int
	words       []Word
}

// laneNode mixes broadcasts and unicasts from one sender with seed-derived
// randomness: long broadcasts that stay in flight for several rounds,
// unicast-then-broadcast (the channel's own queue is non-empty, so the
// broadcast cannot use the lane), broadcast-then-unicast (lane words ahead
// of own words, so deliveries span both), back-to-back broadcasts, and
// sleeps. digest folds every delivery received; with record set the node
// also logs its sends and deliveries for the FIFO-model check.
type laneNode struct {
	doneAt int
	digest uint64
	record bool
	sends  []laneSend
	recvs  []laneRecv
}

func (l *laneNode) Init(ctx *Context) {
	r := ctx.RNG()
	l.doneAt = 6 + r.Intn(30)
	l.act(ctx, r, -1)
}

func (l *laneNode) Round(ctx *Context, round int, inbox []Delivery) {
	for _, d := range inbox {
		l.digest = laneMix(l.digest, uint64(round))
		l.digest = laneMix(l.digest, uint64(d.From))
		l.digest = laneMix(l.digest, uint64(len(d.Words)))
		for _, w := range d.Words {
			l.digest = laneMix(l.digest, w)
		}
		if l.record {
			l.recvs = append(l.recvs, laneRecv{round, d.From, append([]Word(nil), d.Words...)})
		}
	}
	if round >= l.doneAt {
		ctx.SetDone()
		ctx.SleepUntil(math.MaxInt32)
		return
	}
	l.act(ctx, ctx.RNG(), round)
}

func (l *laneNode) act(ctx *Context, r *rand.Rand, round int) {
	d := ctx.CommDegree()
	if d == 0 {
		return
	}
	seq := 0
	payload := func(k int) []Word {
		ws := make([]Word, k)
		for i := range ws {
			ws[i] = Word(ctx.ID()*1000003 + (round+1)*1009 + seq)
			seq++
		}
		return ws
	}
	bcast := func(k int) {
		ws := payload(k)
		ctx.Broadcast(ws...)
		if l.record {
			l.sends = append(l.sends, laneSend{round, -1, ws})
		}
	}
	send := func(k int) {
		to := r.Intn(d)
		ws := payload(k)
		ctx.Send(to, ws...)
		if l.record {
			l.sends = append(l.sends, laneSend{round, int(ctx.CommNeighbors()[to]), ws})
		}
	}
	switch r.Intn(6) {
	case 0:
		bcast(1 + r.Intn(7))
	case 1:
		send(1 + r.Intn(3))
		bcast(1 + r.Intn(4))
	case 2:
		bcast(1 + r.Intn(5))
		send(1 + r.Intn(3))
	case 3:
		bcast(1 + r.Intn(3))
		bcast(1 + r.Intn(3))
	case 4:
		ctx.SleepUntil(round + 2 + r.Intn(4))
	}
}

func (l *laneNode) SnapshotState(w *SnapWriter) error {
	w.Int(l.doneAt)
	w.U64(l.digest)
	return nil
}

func (l *laneNode) RestoreState(r *SnapReader) error {
	l.doneAt = r.Int()
	l.digest = r.U64()
	return nil
}

func laneMix(h, x uint64) uint64 {
	h ^= x + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	return h * 0xbf58476d1ce4e5b9
}

func laneNodes(n int, record bool) []Node {
	nodes := make([]Node, n)
	for v := range nodes {
		nodes[v] = &laneNode{record: record}
	}
	return nodes
}

// laneDigest is the sha256 of everything a lane run can observe: rounds,
// delivery and fault metrics (per node included) and every node's delivery
// digest. FastForwardedRounds is scheduler provenance and is left out, so
// the dense reference digests equal too.
func laneDigest(eng *Engine) string {
	h := sha256.New()
	put := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		h.Write(b[:])
	}
	m := eng.Metrics()
	put(uint64(eng.Round()))
	put(uint64(m.ActiveRounds))
	put(uint64(m.MessagesDelivered))
	put(uint64(m.WordsDelivered))
	put(uint64(m.Faults.NodesCrashed))
	put(uint64(m.Faults.WordsLost))
	put(uint64(m.Faults.WordsDuplicated))
	put(uint64(m.Faults.WordsDroppedCrash))
	put(uint64(m.Faults.DelayedDeliveries))
	for v := range m.PerNodeWordsRecv {
		put(uint64(m.PerNodeWordsRecv[v]))
		put(uint64(m.PerNodeWordsSent[v]))
		put(eng.nodes[v].(*laneNode).digest)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func laneGraph(mode Mode) *graph.Graph {
	rng := rand.New(rand.NewSource(23))
	if mode == ModeClique {
		return graph.Gnp(40, 0.2, rng)
	}
	return graph.Gnp(64, 0.25, rng)
}

func runLanes(t *testing.T, g *graph.Graph, cfg Config) *Engine {
	t.Helper()
	eng, err := NewEngine(g, laneNodes(g.N(), false), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.RunUntilQuiescent(); err != nil {
		t.Fatal(err)
	}
	return eng
}

// lanePlacements are the configurations every lane digest must agree
// across: sequential, parallel, sharded, sharded+parallel and the dense
// reference stepper.
var lanePlacements = []struct {
	name   string
	adjust func(*Config)
}{
	{"seq", func(*Config) {}},
	{"parallel", func(c *Config) { c.Parallel, c.Workers = true, 2 }},
	{"shards3", func(c *Config) { c.Shards = 3 }},
	{"shards3-parallel", func(c *Config) { c.Shards, c.Parallel, c.Workers = 3, true, 2 }},
	{"dense", func(c *Config) { c.Scheduler = SchedulerDense }},
}

// laneDigests pins the digests recorded by the engine that expanded every
// Broadcast into one Send per neighbor. Any change in inbox order, words or
// metrics shows up here. The "/faults" runs carry testPlans' combined plan,
// under which Broadcast keeps the per-channel path.
var laneDigests = map[string]string{
	"congest/B1":        "79ea778a645866dcce0fc6c998b477420c034e3db7dd4275390634abfe7bc238",
	"congest/B2":        "f3bdef386c20c2855312c1cdd9fcd12f270c8cc96a6e4e0276ecdaa4a5097713",
	"congest/B3":        "69cfc8c2c6af3ad58a9f6598c8826c20c5b1919bba5b67e038425cecb1ff130d",
	"clique/B1":         "cc9fc24fccd1206c5676db92d2a0fde983d72985ac60685914aeb779f2f0809f",
	"clique/B2":         "c5f278107e165df08d0e1ae8f30dafae57566801e4c6db13291e44266f9667e0",
	"clique/B3":         "45ea2bc5f68682d10d07c8c8c693d190fe083aad336b7477e3acf925fa64bcc8",
	"congest/B1/faults": "f0ea16008920cca21f1efdd9f77a34bb50315089b7d60aad7e5ea073fc43e343",
	"congest/B2/faults": "bb6f06690003ac15fd7075bdc54678aac5b040ec66589b84477d3c193522a4f6",
	"congest/B3/faults": "a760053cac9d555a36b3394a93a694fef0c2f76fe968fbf21748af5ecaa013a6",
	"clique/B1/faults":  "006241613a0ee1e951a182331da8ae64ba67839f6f918017c6530dbb965efebe",
	"clique/B2/faults":  "6ba5ee299133e7a29765eda32505940d77d515844b2eb7701f43aca2acca4fa6",
	"clique/B3/faults":  "474f734b16ed42b7699d7971af4cdc809fe96f188bcdde25a1188db22a10bc13",
}

func TestLaneDigestsPinned(t *testing.T) {
	for _, mode := range []Mode{ModeCONGEST, ModeClique} {
		g := laneGraph(mode)
		for b := 1; b <= 3; b++ {
			for _, faulty := range []bool{false, true} {
				key := fmt.Sprintf("%s/B%d", map[Mode]string{ModeCONGEST: "congest", ModeClique: "clique"}[mode], b)
				cfg := Config{Mode: mode, BandwidthWords: b, Seed: 41}
				if faulty {
					key += "/faults"
					cfg.Faults = testPlans(g.N())["combined"]
				}
				for _, p := range lanePlacements {
					pcfg := cfg
					p.adjust(&pcfg)
					got := laneDigest(runLanes(t, g, pcfg))
					if got != laneDigests[key] {
						t.Errorf("%s %s: digest %s, pinned %s", key, p.name, got, laneDigests[key])
					}
				}
			}
		}
	}
}

// TestLaneResetMidFlight rewinds engines whose lanes still hold words —
// through Reset and through Rebind to the same graph — and checks the
// next run equals a fresh engine's.
func TestLaneResetMidFlight(t *testing.T) {
	g := laneGraph(ModeCONGEST)
	for b := 1; b <= 3; b++ {
		for _, p := range lanePlacements {
			cfg := Config{BandwidthWords: b, Seed: 41}
			p.adjust(&cfg)
			want := laneDigest(runLanes(t, g, cfg))
			for _, rebind := range []bool{false, true} {
				dirty := cfg
				dirty.Seed = 99
				eng, err := NewEngine(g, laneNodes(g.N(), false), dirty)
				if err != nil {
					t.Fatal(err)
				}
				eng.Run(3)
				if eng.PendingWords() == 0 {
					t.Fatalf("B=%d: no words in flight before the rewind", b)
				}
				if rebind {
					err = eng.Rebind(g, laneNodes(g.N(), false), cfg.Seed)
				} else {
					err = eng.Reset(laneNodes(g.N(), false), cfg.Seed)
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
				if got := laneDigest(eng); got != want {
					t.Fatalf("B=%d %s rebind=%v: digest %s, fresh engine %s", b, p.name, rebind, got, want)
				}
			}
		}
	}
}

// TestLaneMatchesFIFOModel replays every logged Send and Broadcast through
// a naive model — one FIFO per directed channel, B words delivered per
// channel per round, sends of round r queued after round r's deliveries —
// and checks each (sender, receiver, round) delivery the engine made
// against it, word for word.
func TestLaneMatchesFIFOModel(t *testing.T) {
	for _, mode := range []Mode{ModeCONGEST, ModeClique} {
		g := laneGraph(mode)
		for b := 1; b <= 3; b++ {
			for _, p := range lanePlacements {
				cfg := Config{Mode: mode, BandwidthWords: b, Seed: 43}
				p.adjust(&cfg)
				eng, err := NewEngine(g, laneNodes(g.N(), true), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := eng.RunUntilQuiescent(); err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("mode=%v B=%d %s", mode, b, p.name)
				checkFIFOModel(t, label, eng, b)
			}
		}
	}
}

func checkFIFOModel(t *testing.T, label string, eng *Engine, b int) {
	t.Helper()
	type key struct{ from, to, round int }
	type ch struct{ from, to int }
	type sent struct {
		from int
		s    laneSend
	}
	sendsAt := map[int][]sent{}
	for u, nd := range eng.nodes {
		for _, s := range nd.(*laneNode).sends {
			sendsAt[s.round] = append(sendsAt[s.round], sent{u, s})
		}
	}
	queues := map[ch][]Word{}
	push := func(round int) {
		for _, e := range sendsAt[round] {
			if e.s.to >= 0 {
				c := ch{e.from, e.s.to}
				queues[c] = append(queues[c], e.s.words...)
				continue
			}
			for _, v := range eng.ctxs[e.from].CommNeighbors() {
				c := ch{e.from, int(v)}
				queues[c] = append(queues[c], e.s.words...)
			}
		}
	}
	want := map[key][]Word{}
	push(-1)
	for r := 0; r < eng.Round(); r++ {
		for c, q := range queues {
			if len(q) == 0 {
				continue
			}
			k := min(b, len(q))
			want[key{c.from, c.to, r}] = q[:k]
			queues[c] = q[k:]
		}
		push(r)
	}
	got := map[key][]Word{}
	for v, nd := range eng.nodes {
		for _, d := range nd.(*laneNode).recvs {
			k := key{d.from, v, d.round}
			if _, dup := got[k]; dup {
				t.Fatalf("%s: two deliveries on channel %d->%d in round %d", label, d.from, v, d.round)
			}
			got[k] = d.words
		}
	}
	// Every receiver of a delivery runs that round and logs it, so the
	// two sets must match exactly.
	if len(got) != len(want) {
		t.Fatalf("%s: %d deliveries, model expects %d", label, len(got), len(want))
	}
	for k, ws := range want {
		if !reflect.DeepEqual(got[k], ws) {
			t.Fatalf("%s: channel %d->%d round %d delivered %v, model %v", label, k.from, k.to, k.round, got[k], ws)
		}
	}
}

// TestLaneSpanningDelivery scripts the lane's edge cases on a star and
// checks the leaves' inboxes exactly. The script covers: a broadcast then
// a unicast to one leaf, so that channel's deliveries span the lane tail
// and its own head (B=2); a broadcast while that unicast is still queued,
// so it must take the per-channel path; a broadcast joining a lane still
// in flight (B=1); and a unicast queued behind lane words, followed by a
// broadcast that must then queue behind it (spans at B=2 and B=3).
func TestLaneSpanningDelivery(t *testing.T) {
	script := map[int]func(ctx *Context){
		-1: func(ctx *Context) { ctx.Broadcast(1, 2, 3); ctx.SendTo(1, 10, 11) },
		0:  func(ctx *Context) { ctx.Broadcast(4) },
		6:  func(ctx *Context) { ctx.Broadcast(7, 8, 9, 13); ctx.SendTo(3, 14) },
		7:  func(ctx *Context) { ctx.Broadcast(12) },
		10: func(ctx *Context) { ctx.SendTo(2, 20); ctx.Broadcast(5, 6) },
	}
	want := [][]Word{
		1: {1, 2, 3, 10, 11, 4, 7, 8, 9, 13, 12, 5, 6},
		2: {1, 2, 3, 4, 7, 8, 9, 13, 12, 20, 5, 6},
		3: {1, 2, 3, 4, 7, 8, 9, 13, 14, 12, 5, 6},
		4: {1, 2, 3, 4, 7, 8, 9, 13, 12, 5, 6},
	}
	for b := 1; b <= 3; b++ {
		for _, mode := range []Mode{ModeCONGEST, ModeClique} {
			recv := make([][]Word, 5)
			nodes := make([]Node, 5)
			for v := 0; v < 5; v++ {
				v := v
				nodes[v] = &recorder{
					initFn: func(ctx *Context) {
						if v == 0 {
							script[-1](ctx)
						}
					},
					roundFn: func(ctx *Context, round int, inbox []Delivery) {
						for _, d := range inbox {
							if d.From != 0 {
								continue
							}
							if len(d.Words) > b {
								t.Fatalf("B=%d: leaf %d got %d words in round %d", b, v, len(d.Words), round)
							}
							recv[v] = append(recv[v], d.Words...)
						}
						if f := script[round]; v == 0 && f != nil {
							f(ctx)
						}
						if round >= 16 {
							ctx.SetDone()
						}
					},
				}
			}
			eng, err := NewEngine(star(5), nodes, Config{Mode: mode, BandwidthWords: b, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.RunUntilQuiescent(); err != nil {
				t.Fatal(err)
			}
			for v := 1; v < 5; v++ {
				if !reflect.DeepEqual(recv[v], want[v]) {
					t.Fatalf("B=%d mode=%v: leaf %d received %v, want %v", b, mode, v, recv[v], want[v])
				}
			}
			// Every broadcast counts once per neighbor.
			if got := eng.Metrics().PerNodeWordsSent[0]; got != 4*(3+1+4+1+2)+2+1+1 {
				t.Fatalf("B=%d mode=%v: center sent %d words", b, mode, got)
			}
		}
	}
}

// laneSnapshotDigests pins sha256 of the snapshot taken at round 3 of the
// lane workload (lane words in flight), as recorded by the engine that
// expanded every Broadcast into per-neighbor Sends: snapshot bytes must
// not depend on how the engine stores broadcasts.
// The dense stepper's snapshots differ (the header records the scheduler).
var laneSnapshotDigests = map[string]string{
	"B1":       "1c3358e1fdd210c57397ae9176abce4357e7dea3d17cb45205b60e676359978c",
	"B2":       "1fdd6ecedb307b7d50e1bb564288fa0e082640662fc25e8c1531faaf0d42aeed",
	"B3":       "18278ab0ceaa41fea5b15b40131516f9be56d00cfb67a141600d51b7c8375831",
	"B1/dense": "fdfdf8edbb03a6f55bb99d4ace756e71986e50d4e1125a60224dc3f8bbaa1da3",
	"B2/dense": "c895895e71a45ebc13ec3604c6659e3c5eb7138e41425306beb1c4172e8bbcdd",
	"B3/dense": "1586d4498464ad8bd3c20b9d26d714e3598798fef1d05b5159393c3004635e36",
}

// TestLaneSnapshotCutResume cuts the lane workload while broadcasts are in
// flight, pins the snapshot bytes, and resumes under every placement; the
// resumed run must equal the straight-through one.
func TestLaneSnapshotCutResume(t *testing.T) {
	g := laneGraph(ModeCONGEST)
	for b := 1; b <= 3; b++ {
		cfg := Config{BandwidthWords: b, Seed: 47}
		full := laneDigest(runLanes(t, g, cfg))
		for _, k := range []int{3, 9} {
			for _, cut := range lanePlacements {
				cutCfg := cfg
				cut.adjust(&cutCfg)
				eng, err := NewEngine(g, laneNodes(g.N(), false), cutCfg)
				if err != nil {
					t.Fatal(err)
				}
				eng.Run(k)
				if eng.PendingWords() == 0 {
					t.Fatalf("B=%d k=%d: no words in flight at the cut", b, k)
				}
				payload, err := eng.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(payload)
				key := fmt.Sprintf("B%d", b)
				if cutCfg.Scheduler == SchedulerDense {
					key += "/dense"
				}
				if k == 3 && hex.EncodeToString(sum[:]) != laneSnapshotDigests[key] {
					t.Errorf("%s %s: snapshot sha256 %x, pinned %s", key, cut.name, sum, laneSnapshotDigests[key])
				}
				for _, res := range lanePlacements {
					resCfg := cfg
					res.adjust(&resCfg)
					if resCfg.Scheduler != cutCfg.Scheduler {
						continue // snapshots pin the scheduler
					}
					eng2, err := NewEngine(g, laneNodes(g.N(), false), resCfg)
					if err != nil {
						t.Fatal(err)
					}
					if err := eng2.Restore(payload); err != nil {
						t.Fatal(err)
					}
					if err := eng2.RunUntilQuiescent(); err != nil {
						t.Fatal(err)
					}
					if got := laneDigest(eng2); got != full {
						t.Fatalf("B=%d k=%d cut=%s resume=%s: digest %s, straight run %s", b, k, cut.name, res.name, got, full)
					}
				}
			}
		}
	}
}
