package ibp

import (
	"strings"
	"testing"
	"time"

	"repro/internal/health"
	"repro/internal/obs"
	"repro/internal/wire"
)

func TestBatchValidation(t *testing.T) {
	c := NewClient()
	cases := []struct {
		name string
		ops  []BatchOp
	}{
		{"empty", nil},
		{"forward ref", []BatchOp{
			StoreRefOp(1, []byte("x")),
			AllocateOp(10, time.Hour, Hard),
		}},
		{"ref to non-allocate", []BatchOp{
			AllocateOp(10, time.Hour, Hard),
			StoreRefOp(0, []byte("x")),
			{Verb: OpLoad, Ref: 1, Length: 1},
		}},
		{"wrong cap type", []BatchOp{
			{Verb: OpStore, Ref: -1, Cap: MintCap([]byte("s"), "a:1", "k", CapRead), Data: []byte("x")},
		}},
		{"unbatchable verb", []BatchOp{{Verb: OpCopy, Ref: -1}}},
		{"bad reliability", []BatchOp{{Verb: OpAllocate, MaxSize: 10, Duration: time.Hour, Rel: "BEST_EFFORT", Ref: -1}}},
	}
	for _, tc := range cases {
		if _, err := c.Batch("127.0.0.1:1", tc.ops); err == nil {
			t.Errorf("%s: batch validation should fail", tc.name)
		}
	}
}

func TestParseBatchRef(t *testing.T) {
	if i, ok := ParseBatchRef("@3"); !ok || i != 3 {
		t.Fatalf("@3 -> %d, %v", i, ok)
	}
	for _, bad := range []string{"3", "@", "@-1", "@x", ""} {
		if _, ok := ParseBatchRef(bad); ok {
			t.Fatalf("ParseBatchRef(%q) should fail", bad)
		}
	}
}

// TestBatchEventsCarryTrace pins the trace stamp on batch sub-ops: under a
// sampled span every sub-op's event carries the trace, parents onto the
// span and has its own span ID, exactly as the same verb sent alone would,
// so a traced upload or refresh shows every ALLOCATE, STORE and EXTEND it
// ran.
func TestBatchEventsCarryTrace(t *testing.T) {
	set := MintSet([]byte("s"), "depot.example:6714", strings.Repeat("ab", KeyLen))
	exp := wire.Itoa(time.Now().Add(time.Hour).Unix())
	addr := scriptServer(t,
		"OK 2", "OK "+set.Read.String()+" "+set.Write.String()+" "+set.Manage.String(), "OK 5 5",
		"OK 3", "OK "+exp, "OK "+exp, "OK "+exp,
	)
	root := obs.NewRootSpan()
	col := obs.NewCollector(16)
	c := NewClient(WithObserver(col)).WithSpan(root)

	if _, err := c.AllocateStore(addr, 64, time.Hour, Hard, []byte("hello")); err != nil {
		t.Fatalf("AllocateStore: %v", err)
	}
	extend := ExtendOp(set.Manage, time.Hour)
	res, err := c.Batch(addr, []BatchOp{extend, extend, extend})
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("extend %d: %v", i, r.Err)
		}
	}

	evs := col.Recent(0)
	wantVerbs := []string{OpAllocate, OpStore, OpExtend, OpExtend, OpExtend}
	if len(evs) != len(wantVerbs) {
		t.Fatalf("trace holds %d events, want %d: %+v", len(evs), len(wantVerbs), col.Recent(0))
	}
	spans := map[string]bool{}
	for i, e := range evs {
		if e.Verb != wantVerbs[i] || !e.Batched || e.Trace != root.TraceID || e.Parent != root.SpanID || e.Span == "" || e.Span == root.SpanID {
			t.Errorf("event %d = %+v, want a batched %s parented on %s with its own span", i, e, wantVerbs[i], root.SpanID)
		}
		if spans[e.Span] {
			t.Errorf("event %d reuses span %s", i, e.Span)
		}
		spans[e.Span] = true
	}
}

// TestSingleAndBatchedVerbsAgree runs each verb alone and as a 1-op batch
// against the same scripted reply (or with the same bad argument): one
// codec and one validation mean both paths fail, and fail the same way.
func TestSingleAndBatchedVerbsAgree(t *testing.T) {
	key := strings.Repeat("cd", KeyLen)
	other := MintSet([]byte("s"), "depot.example:6714", key)
	rows := []struct {
		name  string
		reply string
		op    func(s CapSet) BatchOp // s names the scripted server
	}{
		{
			name:  "caps out of order",
			reply: "OK " + other.Write.String() + " " + other.Read.String() + " " + other.Manage.String(),
			op:    func(CapSet) BatchOp { return AllocateOp(64, time.Hour, Hard) },
		},
		{
			name:  "short store reply",
			reply: "OK 5",
			op:    func(s CapSet) BatchOp { return BatchOp{Verb: OpStore, Cap: s.Write, Ref: -1, Data: []byte("hello")} },
		},
		{
			name:  "load length mismatch",
			reply: "OK 3",
			op:    func(s CapSet) BatchOp { return LoadOp(s.Read, 0, 5) },
		},
		{
			name:  "remote error",
			reply: "ERR NOT_FOUND gone",
			op:    func(s CapSet) BatchOp { return BatchOp{Verb: OpProbe, Cap: s.Manage, Ref: -1} },
		},
		{
			name:  "extend duration 0",
			reply: "OK " + wire.Itoa(time.Now().Unix()),
			op:    func(s CapSet) BatchOp { return ExtendOp(s.Manage, 0) },
		},
		{
			name:  "wrong capability type",
			reply: "OK 0",
			op:    func(s CapSet) BatchOp { return BatchOp{Verb: OpDelete, Cap: s.Read, Ref: -1} },
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			addr := scriptServer(t, row.reply)
			single := alone(NewClient(), addr, row.op(MintSet([]byte("s"), addr, key)))
			addr = scriptServer(t, "OK 1", row.reply)
			res, batched := NewClient().Batch(addr, []BatchOp{row.op(MintSet([]byte("s"), addr, key))})
			if batched == nil {
				batched = res[0].Err
			}
			if single == nil || batched == nil || health.Classify(single) != health.Classify(batched) {
				t.Fatalf("single verb: %v (%s); 1-op batch: %v (%s); want the same failure class",
					single, health.Classify(single), batched, health.Classify(batched))
			}
		})
	}
}

// alone runs op through its single-verb method against addr.
func alone(c *Client, addr string, op BatchOp) error {
	var err error
	switch op.Verb {
	case OpAllocate:
		_, err = c.Allocate(addr, op.MaxSize, op.Duration, op.Rel)
	case OpStore:
		_, err = c.Store(op.Cap, op.Data)
	case OpLoad:
		_, err = c.Load(op.Cap, op.Offset, op.Length)
	case OpProbe:
		_, err = c.Probe(op.Cap)
	case OpExtend:
		_, err = c.Extend(op.Cap, op.Duration)
	case OpDelete:
		_, err = c.Delete(op.Cap)
	}
	return err
}
