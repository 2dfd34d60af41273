package sim

import (
	"reflect"
	"testing"

	"aim/internal/compiler"
	"aim/internal/fxp"
	"aim/internal/model"
	"aim/internal/pim"
	"aim/internal/stream"
	"aim/internal/vf"
	"aim/internal/xrand"
)

func TestValueOfCodeInvertsFxpCode(t *testing.T) {
	for _, q := range []int{4, 8} {
		for code := uint32(0); code < 1<<uint(q); code++ {
			v := valueOfCode(code, q)
			if got := fxp.Code(v, q); got != code {
				t.Fatalf("q=%d: Code(valueOfCode(%#x)) = %#x", q, code, got)
			}
		}
	}
}

func TestGroupTogglesHRMatchesTask(t *testing.T) {
	cfg := pim.DefaultConfig()
	rng := xrand.New(1)
	hrs := []float64{0.25, 0.5}
	gt := newGroupToggles(cfg, hrs, rng, &waveScratch{})
	if len(gt.banks) != 2 {
		t.Fatalf("banks = %d", len(gt.banks))
	}
	for i, want := range hrs {
		got := gt.banks[i].HR()
		// 1024 stored bits per bank: the sample HR concentrates near
		// the task HR.
		if got < want-0.06 || got > want+0.06 {
			t.Errorf("bank %d HR = %.3f, want ~%.2f", i, got, want)
		}
	}
}

// TestGroupTogglesMatchesBytesReference is the engine-level
// equivalence guarantee: every per-cycle task Rtog of the word-wise
// PackedToggles engine equals the legacy one-byte-per-bit reference
// walk (pim.Bank.RtogCycleBytes) over the same toggles, and the
// group's activity is their max. Two waves run on one scratch, so the
// second wave proves the reused banks and toggle words carry nothing
// over from the first.
func TestGroupTogglesMatchesBytesReference(t *testing.T) {
	cfg := pim.DefaultConfig()
	scratch := &waveScratch{}
	waves := [][]float64{
		{0.05, 0.25, 0.5, 0.75, 0.95},
		{0.5, 0.1, 0.9},
	}
	for wi, hrs := range waves {
		scratch.nextWave()
		rng := xrand.NewShard(seed, "sim/toggles", wi)
		gt := newGroupToggles(cfg, hrs, rng, scratch)
		for cyc := 0; cyc < 250; cyc++ {
			gt.next(float64(cyc%11)/10, rng)
			toggles := stream.Unpack(gt.words, gt.cells)
			worst := 0.0
			for i := range hrs {
				want := gt.banks[i].RtogCycleBytes(toggles)
				if got := gt.rtog(i); got != want {
					t.Fatalf("wave %d cycle %d task %d: packed Rtog %v, byte reference %v", wi, cyc, i, got, want)
				}
				worst = max(worst, want)
			}
			if got := gt.activity(); got != worst {
				t.Fatalf("wave %d cycle %d: activity %v, want worst task Rtog %v", wi, cyc, got, worst)
			}
		}
	}
}

// TestPackedFidelityParallelMatchesSerial extends the determinism
// guarantee to the packed engine: wave sharding must not change a bit.
// Odd worker counts land chunk boundaries mid-schedule, so scratch
// reused across a chunk's waves is proven bit-identical to the
// one-chunk serial run at every boundary shape.
func TestPackedFidelityParallelMatchesSerial(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.CyclesPerWave = 120
	opt.Fidelity = PackedToggles
	opt.Parallel = 1
	serial := Run(aim, pim.DefaultConfig(), opt)
	for _, workers := range []int{0, 2, 3, 5} {
		opt.Parallel = workers
		parallel := Run(aim, pim.DefaultConfig(), opt)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("packed fidelity not shard-deterministic at Parallel=%d:\nserial:   %+v\nparallel: %+v", workers, serial, parallel)
		}
	}
}

// TestPackedFidelityPlausible: the microarchitectural engine must tell
// the same qualitative story as the analytic model — drops in the same
// band, mitigation positive.
func TestPackedFidelityPlausible(t *testing.T) {
	_, aim, net := compileBoth(t, "resnet18")
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	analytic := Run(aim, pim.DefaultConfig(), opt)
	opt.Fidelity = PackedToggles
	packed := Run(aim, pim.DefaultConfig(), opt)
	if packed.WorstDropMV <= 0 || packed.Mitigation <= 0 {
		t.Fatalf("packed run implausible: %+v", packed)
	}
	// Same model, same workload: the two engines agree within the
	// binomial cell-level variance the packed engine adds (~±35%).
	lo, hi := analytic.AvgDropMV*0.65, analytic.AvgDropMV*1.35
	if packed.AvgDropMV < lo || packed.AvgDropMV > hi {
		t.Errorf("packed AvgDrop %.2f mV far from analytic %.2f mV", packed.AvgDropMV, analytic.AvgDropMV)
	}
}

func benchSimFidelity(b *testing.B, fidelity Fidelity, parallel int) {
	net, err := model.ByName("resnet18", seed)
	if err != nil {
		b.Fatal(err)
	}
	copt := compiler.DefaultOptions()
	copt.Strategy = compiler.SequentialMap
	c := compiler.Compile(net, pim.DefaultConfig(), copt)
	opt := DefaultOptions(net.Transformer, vf.LowPower)
	opt.Seed = seed
	opt.Fidelity = fidelity
	opt.Parallel = parallel
	Run(c, pim.DefaultConfig(), opt) // untimed warm-up: page in caches and heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(c, pim.DefaultConfig(), opt)
		if res.Cycles == 0 {
			b.Fatal("empty run")
		}
	}
}

// BenchmarkSimPacked measures an end-to-end PackedToggles run with
// Parallel=1: the word-wise per-cycle pipeline, every wave in one
// chunk on the calling goroutine. Compare BenchmarkSimPackedParallel
// for the sharded run.
func BenchmarkSimPacked(b *testing.B) { benchSimFidelity(b, PackedToggles, 1) }

// BenchmarkSimPackedParallel is the same run with Parallel=0: two wave
// chunks per CPU, each on its own scratch. With one CPU it matches
// BenchmarkSimPacked; with more, wave sharding divides the wall clock.
func BenchmarkSimPackedParallel(b *testing.B) { benchSimFidelity(b, PackedToggles, 0) }

// BenchmarkSimAnalytic is the closed-form default engine, for scale.
func BenchmarkSimAnalytic(b *testing.B) { benchSimFidelity(b, AnalyticToggles, 1) }
