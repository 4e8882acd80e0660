package swiftsim

import (
	"strings"
	"testing"
)

func smallGPU() GPU {
	g := RTX2080Ti()
	g.NumSMs = 4
	g.MemPartitions = 2
	return g
}

func TestFacadeQuickstartFlow(t *testing.T) {
	app, err := GenerateWorkload("BFS", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(app, smallGPU(), Config{Kind: SwiftSimMemory})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	var sb strings.Builder
	if err := WriteMetricsReport(&sb, res); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gpu.cycles") {
		t.Error("metrics report missing gpu.cycles")
	}
}

func TestFacadePresets(t *testing.T) {
	for _, name := range []string{"RTX2080Ti", "RTX3060", "RTX3090"} {
		g, ok := GPUPreset(name)
		if !ok || g.Name != name {
			t.Errorf("GPUPreset(%q) = %v, %v", name, g.Name, ok)
		}
	}
	if RTX2080Ti().NumSMs != 68 || RTX3060().NumSMs != 28 || RTX3090().NumSMs != 82 {
		t.Error("preset SM counts wrong")
	}
}

func TestFacadeWorkloadCatalog(t *testing.T) {
	if got := len(Workloads()); got != 20 {
		t.Fatalf("Workloads() = %d names, want 20", got)
	}
	cat := WorkloadCatalog()
	if len(cat) != 20 {
		t.Fatalf("catalog = %d entries, want 20", len(cat))
	}
	memBound := 0
	for _, wi := range cat {
		if wi.Name == "" || wi.Suite == "" || wi.Description == "" {
			t.Errorf("incomplete catalog entry %+v", wi)
		}
		if wi.MemoryBound {
			memBound++
		}
	}
	if memBound != 4 {
		t.Errorf("memory-bound apps = %d, want 4 (NW, ADI, SM, GRU)", memBound)
	}
}

func TestFacadeTraceRoundTrip(t *testing.T) {
	app, err := GenerateWorkload("MVT", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/mvt.sgt"
	if err := WriteTrace(path, app); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Insts() != app.Insts() {
		t.Errorf("trace round trip changed instruction count: %d vs %d", back.Insts(), app.Insts())
	}
}

func TestFacadeGPUFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/gpu.cfg"
	want := RTX3060()
	if err := WriteGPU(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadGPU(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("GPU config file round trip mismatch")
	}
}

func TestFacadeSimulateAll(t *testing.T) {
	gpu := smallGPU()
	var jobs []Job
	for _, name := range []string{"BFS", "GEMM", "WC"} {
		app, err := GenerateWorkload(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, Job{App: app, GPU: gpu, Cfg: Config{Kind: SwiftSimMemory}})
	}
	outs := SimulateAll(jobs, 2)
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d, want 3", len(outs))
	}
	for i, o := range outs {
		if o.Err != nil {
			t.Errorf("job %d: %v", i, o.Err)
		}
	}
}

func TestFacadeHardwareModel(t *testing.T) {
	app, err := GenerateWorkload("GAUSSIAN", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	gpu := smallGPU()
	hw, err := SimulateHardware(app, gpu)
	if err != nil {
		t.Fatal(err)
	}
	det, err := Simulate(app, gpu, Config{Kind: Detailed})
	if err != nil {
		t.Fatal(err)
	}
	if hw.Cycles <= det.Cycles {
		t.Errorf("hardware model (%d cycles) must exceed the detailed simulator (%d): it adds unmodeled effects",
			hw.Cycles, det.Cycles)
	}
}
