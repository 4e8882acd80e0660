package smcore_test

import (
	"math/rand"
	"slices"
	"testing"

	"swiftsim/internal/smcore"
	"swiftsim/internal/trace"
	"swiftsim/internal/workload"
)

// scanCoalesce is the coalescer as it was before it learned to hash: every
// lane scans the unique sectors found so far.
func scanCoalesce(addrs []uint64, sectorBytes int) []uint64 {
	mask := ^uint64(sectorBytes - 1)
	var out []uint64
	for _, a := range addrs {
		s := a & mask
		dup := false
		for _, o := range out {
			if o == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out
}

// corpusInst is a memory instruction and the kernel holding its lanes.
type corpusInst struct {
	k  *trace.Kernel
	in *trace.Inst
}

// corpusGlobalInsts returns every global-memory instruction of the 20
// catalog apps at scale 0.5, the benchmark's traces.
func corpusGlobalInsts(tb testing.TB) []corpusInst {
	var insts []corpusInst
	for _, name := range workload.Names() {
		app, err := workload.Generate(name, 0.5)
		if err != nil {
			tb.Fatal(err)
		}
		for _, k := range app.Kernels {
			for bi := range k.Blocks {
				for _, w := range k.Blocks[bi].Warps {
					for i := range w {
						if w[i].Op.IsGlobalMem() {
							insts = append(insts, corpusInst{k, &w[i]})
						}
					}
				}
			}
		}
	}
	return insts
}

// TestCoalesceMatchesScan: the adaptive coalescer returns exactly what the
// scan did, order included, on every global instruction of the corpus and on
// random lanes of every width up to past the hashed path's 32-lane limit, at
// sector sizes down to one byte (where a sector+1 sentinel would collide).
func TestCoalesceMatchesScan(t *testing.T) {
	insts := corpusGlobalInsts(t)
	var buf []uint64
	var lanes [trace.WarpSize]uint64
	hashed := 0
	for _, c := range insts {
		addrs := c.k.Store.Lanes(c.in, &lanes)
		buf = smcore.CoalesceInto(buf, addrs, 32)
		if want := scanCoalesce(addrs, 32); !slices.Equal(buf, want) {
			t.Fatalf("PC %#x: coalesced %v, the scan %v", c.in.PC, buf, want)
		}
		if len(buf) > 8 {
			hashed++
		}
	}
	t.Logf("%d global instructions, %d with more than 8 sectors", len(insts), hashed)

	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20000; trial++ {
		sectorBytes := []int{1, 4, 32, 128}[rng.Intn(4)]
		span := []int{64, 4096, 1 << 40}[rng.Intn(3)]
		addrs := make([]uint64, rng.Intn(41))
		for i := range addrs {
			addrs[i] = uint64(rng.Int63n(int64(span)))
		}
		buf = smcore.CoalesceInto(buf, addrs, sectorBytes)
		if want := scanCoalesce(addrs, sectorBytes); !slices.Equal(buf, want) {
			t.Fatalf("%d lanes at %d-byte sectors: coalesced %v, the scan %v", len(addrs), sectorBytes, buf, want)
		}
	}
}

// BenchmarkCoalesceCorpus coalesces every global instruction of the corpus
// once per iteration.
func BenchmarkCoalesceCorpus(b *testing.B) {
	insts := corpusGlobalInsts(b)
	var buf []uint64
	var lanes [trace.WarpSize]uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range insts {
			buf = smcore.CoalesceInto(buf, c.k.Store.Lanes(c.in, &lanes), 32)
		}
	}
}
