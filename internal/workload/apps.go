package workload

import (
	"fmt"

	"swiftsim/internal/trace"
)

// This file registers the 20 application generators, grouped by suite.
// Each generator reproduces the pattern class of the real benchmark:
//
//	Rodinia:   BFS, HOTSPOT, NW, PATHFINDER, SRAD, BACKPROP, GAUSSIAN
//	Polybench: 2MM, ATAX, GEMM, MVT, ADI, LU
//	Mars:      SM (string match), WC (word count)
//	Tango:     ALEXNET, GRU, LSTM
//	Pannotia:  PAGERANK, SSSP
//
// Applications marked MemoryBound stream large footprints with little
// reuse; in the paper these (NW, ADI, SM, GRU) show the largest
// Swift-Sim-Memory speedups because the hybrid simulator skips their
// memory-system ticking entirely.

func init() {
	registerRodinia()
	registerPolybench()
	registerMars()
	registerTango()
	registerPannotia()
}

// rowBytesOf spreads block working sets over a region larger than the L2
// (5.5 MiB on the 2080 Ti) so streaming workloads become DRAM-bound.
const bigRegion = 64 << 20

func app(name, suite string, kernels ...*trace.Kernel) *trace.App {
	return &trace.App{Name: name, Suite: suite, Kernels: kernels}
}

// ---------------------------------------------------------------------------
// Rodinia

func registerRodinia() {
	register(Spec{
		Name: "BFS", Suite: "Rodinia",
		Description: "level-synchronous breadth-first search: divergent gathers over CSR arrays",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			var kernels []*trace.Kernel
			// Each BFS level is one kernel; frontier shrinks/grows.
			fracs := []float64{0.9, 0.5, 0.25, 0.6}
			for lvl, frac := range fracs {
				r := newRNG(uint64(0xBF5 + lvl))
				k := kernel1D(b, fmt.Sprintf("bfs_level%d", lvl), blocks, 256, 24, 0,
					func(b *wb, block, warp int) {
						seed := newRNG(r.next() ^ uint64(block*64+warp))
						tid := b.alu(trace.OpInt)
						base := uint64(arrA + (block*8+warp)*1024)
						frontier := b.load(b.coalesced(base, 4), tid)
						b.loop(6, func(e int) {
							m := divergentMask(&seed, frac)
							nbr := b.loadMasked(m, b.gatherMasked(&seed, m, arrB, bigRegion), frontier)
							dist := b.loadMasked(m, b.gatherMasked(&seed, m, arrC, bigRegion), nbr)
							upd := b.aluMasked(trace.OpInt, m, nbr, dist)
							b.storeMasked(m, b.gatherMasked(&seed, m, arrC, bigRegion), upd)
						})
					})
				kernels = append(kernels, k)
			}
			return app("BFS", "Rodinia", kernels...)
		},
	})

	register(Spec{
		Name: "HOTSPOT", Suite: "Rodinia",
		Description: "2D thermal stencil with shared-memory tiles and halo reuse",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(24, scale, 2)
			k := kernel1D(b, "hotspot_stencil", blocks, 256, 30, 4096,
				func(b *wb, block, warp int) {
					row := uint64(arrA + (block*256+warp*32)*4)
					// Load tile + halo into shared memory.
					t0 := b.load(b.coalesced(row, 4), 0)
					b.shStore(b.shBank(uint64(warp*128), 4), t0)
					t1 := b.load(b.coalesced(row+1024, 4), 0)
					b.shStore(b.shBank(uint64(warp*128+4096), 4), t1)
					b.barrier()
					b.loop(24, func(it int) {
						n := b.shLoad(b.shBank(uint64(warp*128), 4))
						s := b.shLoad(b.shBank(uint64(warp*128+4096), 4))
						e := b.alu(trace.OpSP, n, s)
						w := b.alu(trace.OpSP, e, n)
						acc := b.alu(trace.OpSP, w, e)
						b.shStore(b.shBank(uint64(warp*128), 4), acc)
						b.barrier()
					})
					res := b.shLoad(b.shBank(uint64(warp*128), 4))
					b.store(b.coalesced(arrB+row, 4), res)
				})
			return app("HOTSPOT", "Rodinia", k)
		},
	})

	register(Spec{
		Name: "NW", Suite: "Rodinia", MemoryBound: true,
		Description: "Needleman-Wunsch wavefront: strided matrix sweeps, minimal reuse",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(12, scale, 2)
			mk := func(name string, pass int) *trace.Kernel {
				return kernel1D(b, name, blocks, 128, 28, 2048,
					func(b *wb, block, warp int) {
						base := uint64(arrA + pass*0x400_0000 + (block*16+warp)*65536)
						b.loop(20, func(d int) {
							// Wavefront diagonal: strided (uncoalesced) row
							// and column reads over a big matrix.
							up := b.load(b.strided(base+uint64(d)*2048, 512), 0)
							left := b.load(b.strided(base+uint64(d)*2048+4, 512), 0)
							ref := b.load(b.coalesced(arrD+base%bigRegion+uint64(d)*128, 4), 0)
							sc := b.alu(trace.OpInt, up, left)
							sc2 := b.alu(trace.OpInt, sc, ref)
							b.store(b.strided(base+uint64(d+1)*2048, 512), sc2)
						})
					})
			}
			return app("NW", "Rodinia", mk("nw_pass1", 0), mk("nw_pass2", 1))
		},
	})

	register(Spec{
		Name: "PATHFINDER", Suite: "Rodinia",
		Description: "dynamic-programming row relaxation with neighbour reuse",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(20, scale, 2)
			k := kernel1D(b, "pathfinder_rows", blocks, 256, 20, 2048,
				func(b *wb, block, warp int) {
					base := uint64(arrA + (block*2048+warp*256)*4)
					prev := b.load(b.coalesced(base, 4), 0)
					b.loop(12, func(row int) {
						l := b.load(b.coalesced(base+uint64(row)*8192, 4), 0)
						c := b.load(b.coalesced(base+uint64(row)*8192+128, 4), 0)
						m1 := b.alu(trace.OpInt, prev, l)
						m2 := b.alu(trace.OpInt, m1, c)
						prev = b.alu(trace.OpInt, m2, l)
						b.barrier()
					})
					b.store(b.coalesced(arrB+base%bigRegion, 4), prev)
				})
			return app("PATHFINDER", "Rodinia", k)
		},
	})

	register(Spec{
		Name: "SRAD", Suite: "Rodinia",
		Description: "speckle-reducing anisotropic diffusion: stencil + transcendental-heavy updates",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(20, scale, 2)
			mk := func(name string, phase int) *trace.Kernel {
				return kernel1D(b, name, blocks, 256, 32, 0,
					func(b *wb, block, warp int) {
						// 2D stencil over row-major tiles: each warp
						// sweeps down its column slice reading the
						// centre and south rows; the south row is
						// re-read as the centre of the next iteration,
						// so the L1 sees genuine halo reuse.
						const rowStride = 4096
						base := uint64(arrA+phase*0x100_0000) +
							uint64(block)*16*rowStride + uint64(warp)*128
						b.loop(10, func(i int) {
							c := b.load(b.coalesced(base+uint64(i)*rowStride, 4), 0)
							s := b.load(b.coalesced(base+uint64(i+1)*rowStride, 4), 0)
							g := b.alu(trace.OpSP, c, s)
							d := b.alu(trace.OpSFU, g)
							e := b.alu(trace.OpSP, d, c)
							f := b.alu(trace.OpSFU, e)
							out := b.alu(trace.OpSP, f, g)
							b.store(b.coalesced(arrC+base%bigRegion+uint64(i)*rowStride, 4), out)
						})
					})
			}
			return app("SRAD", "Rodinia", mk("srad_k1", 0), mk("srad_k2", 1))
		},
	})

	register(Spec{
		Name: "BACKPROP", Suite: "Rodinia",
		Description: "MLP back-propagation: dense matvec layers with SFU activations",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			fwd := kernel1D(b, "backprop_forward", blocks, 256, 26, 8192,
				func(b *wb, block, warp int) {
					acc := b.alu(trace.OpSP)
					b.loop(14, func(i int) {
						w := b.load(b.coalesced(uint64(arrA+(block*14+i)*8192+warp*1024), 4), 0)
						x := b.load(b.broadcast(uint64(arrB+i*512)), 0)
						acc = b.alu(trace.OpSP, w, x)
					})
					act := b.alu(trace.OpSFU, acc)
					b.store(b.coalesced(uint64(arrC+(block*256+warp*32)*4), 4), act)
				})
			bwd := kernel1D(b, "backprop_adjust", blocks, 256, 26, 8192,
				func(b *wb, block, warp int) {
					g := b.load(b.coalesced(uint64(arrC+(block*256+warp*32)*4), 4), 0)
					b.loop(10, func(i int) {
						w := b.load(b.coalesced(uint64(arrA+(block*10+i)*8192+warp*1024), 4), 0)
						d := b.alu(trace.OpSP, g, w)
						b.store(b.coalesced(uint64(arrA+(block*10+i)*8192+warp*1024), 4), d)
					})
				})
			return app("BACKPROP", "Rodinia", fwd, bwd)
		},
	})

	register(Spec{
		Name: "GAUSSIAN", Suite: "Rodinia",
		Description: "Gaussian elimination: shrinking row updates, broadcast pivot reads",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(12, scale, 2)
			var kernels []*trace.Kernel
			for step := 0; step < 3; step++ {
				k := kernel1D(b, fmt.Sprintf("gaussian_step%d", step), blocks, 128, 22, 0,
					func(b *wb, block, warp int) {
						base := uint64(arrA + (block*512+warp*64)*4)
						piv := b.load(b.broadcast(uint64(arrB+step*256)), 0)
						b.loop(8-2*step, func(i int) {
							row := b.load(b.coalesced(base+uint64(i)*2048, 4), 0)
							f := b.alu(trace.OpSP, row, piv)
							u := b.alu(trace.OpSP, f, row)
							b.store(b.coalesced(base+uint64(i)*2048, 4), u)
						})
					})
				kernels = append(kernels, k)
			}
			return app("GAUSSIAN", "Rodinia", kernels...)
		},
	})
}

// ---------------------------------------------------------------------------
// Polybench

func registerPolybench() {
	gemmLike := func(b *wb, name string, blocks int, depth int) *trace.Kernel {
		return kernel1D(b, name, blocks, 256, 32, 8192,
			func(b *wb, block, warp int) {
				acc := b.alu(trace.OpSP)
				b.loop(depth, func(t int) {
					// Tiled: load A and B tiles to shared, then FMA chain.
					a := b.load(b.coalesced(uint64(arrA+(block*depth+t)*4096+warp*1024), 4), 0)
					b.shStore(b.shBank(uint64(warp*256), 4), a)
					bb := b.load(b.coalesced(uint64(arrB+t*4096+warp*1024), 4), 0)
					b.shStore(b.shBank(uint64(8192+warp*256), 4), bb)
					b.barrier()
					b.loop(6, func(u int) {
						x := b.shLoad(b.shBank(uint64(warp*256), 4))
						y := b.shLoad(b.shBank(uint64(8192+warp*256), 4))
						acc = b.alu(trace.OpSP, x, y)
						acc = b.alu(trace.OpSP, acc, x)
					})
					b.barrier()
				})
				b.store(b.coalesced(uint64(arrC+(block*256+warp*32)*4), 4), acc)
			})
	}

	register(Spec{
		Name: "GEMM", Suite: "Polybench",
		Description: "dense matrix multiply with shared-memory tiling",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			return app("GEMM", "Polybench", gemmLike(b, "gemm", scaleDim(16, scale, 2), 10))
		},
	})

	register(Spec{
		Name: "2MM", Suite: "Polybench",
		Description: "two chained dense matrix multiplies",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(12, scale, 2)
			return app("2MM", "Polybench",
				gemmLike(b, "mm1", blocks, 8), gemmLike(b, "mm2", blocks, 8))
		},
	})

	register(Spec{
		Name: "ATAX", Suite: "Polybench",
		Description: "A^T A x: two matvec passes, row-major then column-major",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			rowPass := kernel1D(b, "atax_ax", blocks, 256, 24, 0,
				func(b *wb, block, warp int) {
					acc := b.alu(trace.OpSP)
					b.loop(12, func(i int) {
						a := b.load(b.coalesced(uint64(arrA+(block*12+i)*8192+warp*1024), 4), 0)
						x := b.load(b.broadcast(uint64(arrB+i*128)), 0)
						acc = b.alu(trace.OpSP, a, x)
					})
					b.store(b.coalesced(uint64(arrC+(block*256+warp*32)*4), 4), acc)
				})
			colPass := kernel1D(b, "atax_aty", blocks, 256, 24, 0,
				func(b *wb, block, warp int) {
					acc := b.alu(trace.OpSP)
					b.loop(12, func(i int) {
						// Column-major: strided, poorly coalesced.
						a := b.load(b.strided(uint64(arrA+(block*256+warp*32)*4+i*128), 8192), 0)
						y := b.load(b.broadcast(uint64(arrC+i*128)), 0)
						acc = b.alu(trace.OpSP, a, y)
					})
					b.store(b.coalesced(uint64(arrD+(block*256+warp*32)*4), 4), acc)
				})
			return app("ATAX", "Polybench", rowPass, colPass)
		},
	})

	register(Spec{
		Name: "MVT", Suite: "Polybench",
		Description: "matrix-vector product twice (row and column sweeps)",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			k := kernel1D(b, "mvt", blocks, 256, 22, 0,
				func(b *wb, block, warp int) {
					acc1 := b.alu(trace.OpSP)
					acc2 := b.alu(trace.OpSP)
					b.loop(10, func(i int) {
						a := b.load(b.coalesced(uint64(arrA+(block*10+i)*8192+warp*1024), 4), 0)
						v := b.load(b.broadcast(uint64(arrB+i*64)), 0)
						acc1 = b.alu(trace.OpSP, a, v)
						at := b.load(b.strided(uint64(arrA+(block*256+warp*32)*4+i*64), 8192), 0)
						acc2 = b.alu(trace.OpSP, at, acc1)
					})
					b.store(b.coalesced(uint64(arrC+(block*256+warp*32)*4), 4), acc1)
					b.store(b.coalesced(uint64(arrD+(block*256+warp*32)*4), 4), acc2)
				})
			return app("MVT", "Polybench", k)
		},
	})

	register(Spec{
		Name: "ADI", Suite: "Polybench", MemoryBound: true,
		Description: "alternating-direction implicit sweeps: long strided streams, no reuse",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(12, scale, 2)
			mk := func(name string, vertical bool, region uint64) *trace.Kernel {
				return kernel1D(b, name, blocks, 128, 26, 0,
					func(b *wb, block, warp int) {
						base := region + uint64(block*32+warp)*131072
						b.loop(24, func(i int) {
							var cur, prev trace.Reg
							if vertical {
								cur = b.load(b.strided(base+uint64(i)*4096, 2048), 0)
								prev = b.load(b.strided(base+uint64(i)*4096+2048, 2048), 0)
							} else {
								cur = b.load(b.coalesced(base+uint64(i)*4096, 4), 0)
								prev = b.load(b.coalesced(base+uint64(i)*4096+128, 4), 0)
							}
							u := b.alu(trace.OpSP, cur, prev)
							u2 := b.alu(trace.OpSP, u, cur)
							if vertical {
								b.store(b.strided(base+uint64(i)*4096, 2048), u2)
							} else {
								b.store(b.coalesced(base+uint64(i)*4096, 4), u2)
							}
						})
					})
			}
			return app("ADI", "Polybench",
				mk("adi_row_sweep", false, arrA), mk("adi_col_sweep", true, arrB))
		},
	})

	register(Spec{
		Name: "LU", Suite: "Polybench",
		Description: "LU decomposition: pivot broadcasts and shrinking trailing updates",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(12, scale, 2)
			var kernels []*trace.Kernel
			for step := 0; step < 3; step++ {
				k := kernel1D(b, fmt.Sprintf("lu_step%d", step), blocks, 128, 26, 0,
					func(b *wb, block, warp int) {
						base := uint64(arrA + (block*1024+warp*128)*4)
						piv := b.load(b.broadcast(uint64(arrB+step*512)), 0)
						inv := b.alu(trace.OpSFU, piv)
						b.loop(10-3*step, func(i int) {
							row := b.load(b.coalesced(base+uint64(i)*8192, 4), 0)
							l := b.alu(trace.OpSP, row, inv)
							u := b.alu(trace.OpSP, l, row)
							b.store(b.coalesced(base+uint64(i)*8192, 4), u)
						})
					})
				kernels = append(kernels, k)
			}
			return app("LU", "Polybench", kernels...)
		},
	})
}

// ---------------------------------------------------------------------------
// Mars

func registerMars() {
	register(Spec{
		Name: "SM", Suite: "Mars", MemoryBound: true,
		Description: "map-reduce string match: pure streaming scans over huge keys/values",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(20, scale, 2)
			mapK := kernel1D(b, "sm_map", blocks, 256, 18, 0,
				func(b *wb, block, warp int) {
					// Disjoint per-warp streaming regions: pure
					// cold-miss scans, the bandwidth-bound profile of
					// map-reduce string matching.
					base := uint64(arrA) + uint64(block*8+warp)*262144
					// The search pattern is loaded once and kept in
					// registers; the scan itself streams large chunks.
					pat := b.load(b.broadcast(uint64(arrB+warp*128)), 0)
					b.loop(22, func(i int) {
						chunk := b.load(b.coalesced(base+uint64(i)*8192, 4), 0)
						cmp := b.alu(trace.OpInt, chunk, pat)
						b.store(b.coalesced(uint64(arrC)+base%bigRegion+uint64(i)*8192, 4), cmp)
					})
				})
			reduceK := kernel1D(b, "sm_reduce", blocks/2+1, 256, 18, 0,
				func(b *wb, block, warp int) {
					acc := b.alu(trace.OpInt)
					base := uint64(arrC) + uint64(block*8+warp)*262144
					b.loop(12, func(i int) {
						v := b.load(b.coalesced(base+uint64(i)*16384, 4), 0)
						acc = b.alu(trace.OpInt, acc, v)
					})
					b.store(b.coalesced(uint64(arrD+(block*256+warp*32)*4), 4), acc)
				})
			return app("SM", "Mars", mapK, reduceK)
		},
	})

	register(Spec{
		Name: "WC", Suite: "Mars",
		Description: "map-reduce word count: streaming scan with divergent token boundaries",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			r := newRNG(0x3C)
			k := kernel1D(b, "wc_map", blocks, 256, 20, 1024,
				func(b *wb, block, warp int) {
					seed := newRNG(r.next() ^ uint64(block*64+warp))
					base := uint64(arrA) + uint64(block*256+warp*32)*4096
					b.loop(14, func(i int) {
						chunk := b.load(b.coalesced(base+uint64(i)*65536, 4), 0)
						isSep := b.alu(trace.OpInt, chunk)
						m := divergentMask(&seed, 0.4)
						cnt := b.aluMasked(trace.OpInt, m, isSep)
						b.storeMasked(m, b.coalescedMasked(m, uint64(arrB)+base%bigRegion+uint64(i)*65536, 4), cnt)
					})
				})
			return app("WC", "Mars", k)
		},
	})
}

// ---------------------------------------------------------------------------
// Tango (DNN benchmarks)

func registerTango() {
	register(Spec{
		Name: "ALEXNET", Suite: "Tango",
		Description: "convolution layers: high arithmetic intensity, shared-memory filter reuse",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			var kernels []*trace.Kernel
			layerBlocks := []int{scaleDim(20, scale, 2), scaleDim(14, scale, 2), scaleDim(10, scale, 2)}
			for li, blocks := range layerBlocks {
				k := kernel1D(b, fmt.Sprintf("alexnet_conv%d", li+1), blocks, 256, 40, 12288,
					func(b *wb, block, warp int) {
						// Load filter once to shared, stream activations.
						f := b.load(b.coalesced(uint64(arrA+li*0x100_0000+warp*1024), 4), 0)
						b.shStore(b.shBank(uint64(warp*256), 4), f)
						b.barrier()
						acc := b.alu(trace.OpSP)
						b.loop(10, func(t int) {
							x := b.load(b.coalesced(uint64(arrB+li*0x100_0000+(block*10+t)*4096+warp*512), 4), 0)
							w := b.shLoad(b.shBank(uint64(warp*256), 4))
							b.loop(5, func(u int) {
								acc = b.alu(trace.OpSP, x, w)
								acc = b.alu(trace.OpSP, acc, x)
							})
						})
						act := b.alu(trace.OpSFU, acc)
						b.store(b.coalesced(uint64(arrC+li*0x100_0000+(block*256+warp*32)*4), 4), act)
					})
				kernels = append(kernels, k)
			}
			return app("ALEXNET", "Tango", kernels...)
		},
	})

	register(Spec{
		Name: "GRU", Suite: "Tango", MemoryBound: true,
		Description: "gated recurrent unit: many small memory-bound matvec kernels in sequence",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			steps := scaleDim(6, scale, 2)
			blocks := scaleDim(10, scale, 2)
			var kernels []*trace.Kernel
			for s := 0; s < steps; s++ {
				k := kernel1D(b, fmt.Sprintf("gru_step%d", s), blocks, 128, 30, 0,
					func(b *wb, block, warp int) {
						// Weight matrices far exceed cache: streamed anew
						// every timestep (the recurrent-weight reload that
						// makes GRUs bandwidth-bound).
						base := uint64(arrA) + uint64(s%3)*0x800_0000 + uint64(block*16+warp)*262144
						z := b.alu(trace.OpSP)
						b.loop(16, func(i int) {
							w := b.load(b.coalesced(base+uint64(i)*16384, 4), 0)
							h := b.load(b.broadcast(uint64(arrD+s*4096+i*64)), 0)
							z = b.alu(trace.OpSP, w, h)
						})
						g := b.alu(trace.OpSFU, z)
						b.store(b.coalesced(uint64(arrE+(block*128+warp*32)*4+s*8192), 4), g)
					})
				kernels = append(kernels, k)
			}
			return app("GRU", "Tango", kernels...)
		},
	})

	register(Spec{
		Name: "LSTM", Suite: "Tango",
		Description: "LSTM cell: four gate matvecs per step, mixed compute/memory",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			steps := scaleDim(4, scale, 1)
			blocks := scaleDim(10, scale, 2)
			var kernels []*trace.Kernel
			for s := 0; s < steps; s++ {
				k := kernel1D(b, fmt.Sprintf("lstm_step%d", s), blocks, 128, 36, 4096,
					func(b *wb, block, warp int) {
						base := uint64(arrA) + uint64(s%2)*0x400_0000 + uint64(block*16+warp)*131072
						var gates [4]trace.Reg
						b.loop(len(gates), func(gi int) {
							acc := b.alu(trace.OpSP)
							b.loop(6, func(i int) {
								w := b.load(b.coalesced(base+uint64(gi*6+i)*8192, 4), 0)
								h := b.load(b.broadcast(uint64(arrD+s*2048+i*64)), 0)
								acc = b.alu(trace.OpSP, w, h)
							})
							gates[gi] = b.alu(trace.OpSFU, acc)
						})
						c := b.alu(trace.OpSP, gates[0], gates[1])
						c2 := b.alu(trace.OpSP, c, gates[2])
						hOut := b.alu(trace.OpSP, c2, gates[3])
						b.store(b.coalesced(uint64(arrE+(block*128+warp*32)*4+s*8192), 4), hOut)
					})
				kernels = append(kernels, k)
			}
			return app("LSTM", "Tango", kernels...)
		},
	})
}

// ---------------------------------------------------------------------------
// Pannotia (graph analytics)

func registerPannotia() {
	register(Spec{
		Name: "PAGERANK", Suite: "Pannotia",
		Description: "pagerank power iteration: irregular gathers of neighbour ranks",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(16, scale, 2)
			var kernels []*trace.Kernel
			for it := 0; it < 2; it++ {
				r := newRNG(uint64(0x9A + it))
				k := kernel1D(b, fmt.Sprintf("pagerank_iter%d", it), blocks, 256, 24, 0,
					func(b *wb, block, warp int) {
						seed := newRNG(r.next() ^ uint64(block*64+warp))
						off := b.load(b.coalesced(uint64(arrA+(block*256+warp*32)*4), 4), 0)
						acc := b.alu(trace.OpSP)
						b.loop(10, func(e int) {
							nbr := b.load(b.gather(&seed, arrB, bigRegion), off)
							rank := b.load(b.gather(&seed, arrC, bigRegion), nbr)
							acc = b.alu(trace.OpSP, acc, rank)
						})
						norm := b.alu(trace.OpSFU, acc)
						b.store(b.coalesced(uint64(arrD+(block*256+warp*32)*4), 4), norm)
					})
				kernels = append(kernels, k)
			}
			return app("PAGERANK", "Pannotia", kernels...)
		},
	})

	register(Spec{
		Name: "SSSP", Suite: "Pannotia",
		Description: "single-source shortest paths: divergent relaxations with scattered updates",
		Generate: func(scale float64) *trace.App {
			b := new(wb)
			blocks := scaleDim(14, scale, 2)
			var kernels []*trace.Kernel
			fracs := []float64{0.8, 0.45, 0.2}
			for it, frac := range fracs {
				r := newRNG(uint64(0x55 + it))
				k := kernel1D(b, fmt.Sprintf("sssp_iter%d", it), blocks, 256, 22, 0,
					func(b *wb, block, warp int) {
						seed := newRNG(r.next() ^ uint64(block*64+warp))
						dist := b.load(b.coalesced(uint64(arrA+(block*256+warp*32)*4), 4), 0)
						b.loop(8, func(e int) {
							m := divergentMask(&seed, frac)
							wgt := b.loadMasked(m, b.gatherMasked(&seed, m, arrB, bigRegion), dist)
							nd := b.aluMasked(trace.OpInt, m, dist, wgt)
							b.storeMasked(m, b.gatherMasked(&seed, m, arrC, bigRegion), nd)
						})
					})
				kernels = append(kernels, k)
			}
			return app("SSSP", "Pannotia", kernels...)
		},
	})
}
