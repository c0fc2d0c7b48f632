package core

import (
	"bytes"
	"context"
	"encoding/json"
	"hash/crc32"
	"testing"

	"valueprof/internal/asm"
	"valueprof/internal/atom"
	"valueprof/internal/vm"
)

// FuzzReadProfileRecord drives both loader policies over arbitrary
// bytes. The loader must never panic, and whatever it accepts must
// satisfy the profile invariants — in particular no site may report
// Inv-Top(k) above 1.0, the property every downstream consumer
// assumes.
func FuzzReadProfileRecord(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"program":"p","input":"i","k":10,"sites":[]}`))
	f.Add([]byte(`{"program":"p","input":"i","k":10,"sites":[` +
		`{"pc":3,"name":"a","exec":100,"lvpHits":90,"zeros":5,` +
		`"top":[{"Value":7,"Count":60},{"Value":1,"Count":40}]}]}`))
	// Violations the validator must catch.
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":10,"top":[{"Value":1,"Count":999}]}]}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":1,"exec":5},{"pc":1,"exec":5}]}`))
	f.Add([]byte(`{"k":10,"sites":[{"pc":-4,"exec":5}]}`))
	f.Add([]byte(`{"k":0,"sites":[]}`))
	f.Add([]byte(`{"program":"p","outcome":"fault","k":10,"sites":[{"pc":1,"exec":`)) // truncated
	f.Add([]byte(`{"unknown":{"nested":[1,2,3]},"k":10,"sites":[]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{"k":1e99,"sites":[]}`))
	f.Add([]byte("\x00\xff\xfe"))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, policy := range []RepairPolicy{RepairNone, RepairDrop} {
			rec, rep, err := ReadProfileRecordPolicy(bytes.NewReader(data), policy)
			if err != nil {
				continue
			}
			if rec == nil || rep == nil {
				t.Fatalf("policy %v: nil record or report without error", policy)
			}
			if rec.K < 1 || rec.K > maxTableWidth {
				t.Fatalf("accepted out-of-range k %d", rec.K)
			}
			seen := make(map[int]bool)
			for i := range rec.Sites {
				s := &rec.Sites[i]
				if s.PC < 0 || s.Exec <= 0 || seen[s.PC] {
					t.Fatalf("accepted invalid site %+v", s)
				}
				seen[s.PC] = true
				if s.LVPHits > s.Exec || s.Zeros > s.Exec {
					t.Fatalf("counters exceed executions: %+v", s)
				}
				// Checking every k up to rec.K is quadratic when the
				// table is wide; the low ks and k = K cover the sum.
				for _, k := range []int{1, 2, 3, rec.K} {
					if inv := s.InvTop(k); inv < 0 || inv > 1 {
						t.Fatalf("InvTop(%d) = %v out of [0,1] for %+v", k, inv, s)
					}
				}
			}
		}
	})
}

// smallCheckpoint profiles ckptSrc for a few thousand instructions in
// an 8 KiB guest and returns the run's checkpoint envelope: a real,
// small seed for FuzzReadCheckpoint.
func smallCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	prog, err := asm.Assemble(ckptSrc)
	if err != nil {
		tb.Fatal(err)
	}
	vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()})
	if err != nil {
		tb.Fatal(err)
	}
	v := atom.Prepare(prog, atom.RunOptions{Input: ckptInput, MemSize: 8 << 10, StepLimit: 3000}, vp)
	if outcome, _ := v.RunControlled(context.Background()); outcome != vm.OutcomeLimit {
		tb.Fatalf("seed run ended %v, want limit", outcome)
	}
	ck, err := CheckpointOf(vp, v, "ckpt", "test")
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, ck); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadCheckpoint drives the checkpoint reader over arbitrary bytes,
// both as a whole envelope and as a payload sealed with a correct CRC
// (so mutations get past the checksum to the state validators).
// ReadCheckpoint must never panic, and a checkpoint it accepts must
// seed a profiler, restore into a VM, and resume for a bounded number
// of steps without panicking — the path internal/supervise takes with
// a carried checkpoint.
func FuzzReadCheckpoint(f *testing.F) {
	prog, err := asm.Assemble(ckptSrc)
	if err != nil {
		f.Fatal(err)
	}
	seed := smallCheckpoint(f)
	if ck, err := ReadCheckpoint(bytes.NewReader(seed)); err != nil || ck.RestoreVM(vm.NewSized(prog, 8<<10)) != nil {
		f.Fatalf("seed checkpoint does not restore: %v", err)
	}
	var env checkpointEnvelope
	if err := json.Unmarshal(seed, &env); err != nil {
		f.Fatal(err)
	}
	// The live seeds track the current encoder; hand-made edge cases
	// live in testdata/fuzz/FuzzReadCheckpoint.
	f.Add(seed)
	f.Add([]byte(env.Payload))

	f.Fuzz(func(t *testing.T, data []byte) {
		inputs := [][]byte{data}
		if json.Valid(data) {
			sealed, err := json.Marshal(checkpointEnvelope{
				Magic:   checkpointMagic,
				Version: checkpointVersion,
				CRC32:   crc32.ChecksumIEEE(data),
				Payload: data,
			})
			if err == nil {
				inputs = append(inputs, sealed)
			}
		}
		for _, in := range inputs {
			ck, err := ReadCheckpoint(bytes.NewReader(in))
			if err != nil {
				continue
			}
			if vp, err := NewValueProfiler(Options{TNV: DefaultTNVConfig()}); err == nil {
				vp.Seed(ck)
			}
			// An accepted memory image may be as large as
			// vm.MaxMemSize; restoring one that big on every fuzz
			// iteration would only measure the allocator.
			if ck.VM == nil || ck.VM.MemLen > 1<<20 {
				continue
			}
			v := vm.NewSized(prog, 8<<10)
			if err := ck.RestoreVM(v); err != nil {
				continue
			}
			v.StepLimit = v.InstCount + 256
			v.RunControlled(context.Background())
		}
	})
}
