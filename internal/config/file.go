package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The configuration file format is a flat "section.key = value" text file,
// one assignment per line, with '#' comments, mirroring the style of
// Accel-Sim configuration files. One key list serves both directions:
// Marshal writes every key in name order, and Parse looks each line's key up
// in it, so the two round-trip a GPU exactly.

// key names one GPU field in the file. field returns a pointer to it, whose
// type says how the value is written and parsed: *int, *bool, *string, or
// a *topology, *SchedPolicy or *Replacement, which write their String().
type key struct {
	name  string
	field func(*GPU) any
}

// topology is NoCTopology in the file, where the empty default is spelled
// "crossbar".
type topology string

func (t topology) String() string {
	if t == "" {
		return "crossbar"
	}
	return string(t)
}

// keys lists every key, sorted by name at init; keyIndex finds one by name.
var (
	keys = slices.Concat([]key{
		{"gpu.name", func(g *GPU) any { return &g.Name }},
		{"gpu.num_sms", func(g *GPU) any { return &g.NumSMs }},
		{"gpu.mem_partitions", func(g *GPU) any { return &g.MemPartitions }},
		{"gpu.dram_latency", func(g *GPU) any { return &g.DRAMLatency }},
		{"gpu.dram_banks", func(g *GPU) any { return &g.DRAMBanksPerPartition }},
		{"gpu.dram_row_hit_latency", func(g *GPU) any { return &g.DRAMRowHitLatency }},
		{"gpu.noc_latency", func(g *GPU) any { return &g.NoCLatency }},
		{"gpu.noc_flit_bytes", func(g *GPU) any { return &g.NoCFlitBytes }},
		{"gpu.noc_topology", func(g *GPU) any { return (*topology)(&g.NoCTopology) }},
		{"sm.sub_cores", func(g *GPU) any { return &g.SM.SubCores }},
		{"sm.max_warps", func(g *GPU) any { return &g.SM.MaxWarps }},
		{"sm.max_blocks", func(g *GPU) any { return &g.SM.MaxBlocks }},
		{"sm.registers", func(g *GPU) any { return &g.SM.Registers }},
		{"sm.shared_mem_bytes", func(g *GPU) any { return &g.SM.SharedMemBytes }},
		{"sm.scheduler", func(g *GPU) any { return &g.SM.Scheduler }},
		{"sm.schedulers_per_sub_core", func(g *GPU) any { return &g.SM.SchedulersPerSubCore }},
		{"sm.int_lanes", func(g *GPU) any { return &g.SM.IntLanes }},
		{"sm.sp_lanes", func(g *GPU) any { return &g.SM.SPLanes }},
		{"sm.dp_lanes", func(g *GPU) any { return &g.SM.DPLanes }},
		{"sm.dp_lanes_half", func(g *GPU) any { return &g.SM.DPLanesHalf }},
		{"sm.sfu_lanes", func(g *GPU) any { return &g.SM.SFULanes }},
		{"sm.ldst_lanes", func(g *GPU) any { return &g.SM.LDSTLanes }},
		{"sm.int_latency", func(g *GPU) any { return &g.SM.IntLatency }},
		{"sm.sp_latency", func(g *GPU) any { return &g.SM.SPLatency }},
		{"sm.dp_latency", func(g *GPU) any { return &g.SM.DPLatency }},
		{"sm.sfu_latency", func(g *GPU) any { return &g.SM.SFULatency }},
		{"sm.shared_mem_latency", func(g *GPU) any { return &g.SM.SharedMemLatency }},
	}, levelKeys("l1", func(g *GPU) *Cache { return &g.L1 }), levelKeys("l2", func(g *GPU) *Cache { return &g.L2 }))
	keyIndex = make(map[string]key, len(keys))
)

func init() {
	sort.Slice(keys, func(i, j int) bool { return keys[i].name < keys[j].name })
	for _, k := range keys {
		keyIndex[k.name] = k
	}
}

// levelKeys lists one cache level's keys under prefix.
func levelKeys(prefix string, level func(*GPU) *Cache) []key {
	field := func(name string, f func(*Cache) any) key {
		return key{prefix + "." + name, func(g *GPU) any { return f(level(g)) }}
	}
	return []key{
		field("sets", func(c *Cache) any { return &c.Sets }),
		field("ways", func(c *Cache) any { return &c.Ways }),
		field("line_bytes", func(c *Cache) any { return &c.LineBytes }),
		field("sector_bytes", func(c *Cache) any { return &c.SectorBytes }),
		field("banks", func(c *Cache) any { return &c.Banks }),
		field("mshr_entries", func(c *Cache) any { return &c.MSHREntries }),
		field("mshr_max_merge", func(c *Cache) any { return &c.MSHRMaxMerge }),
		field("hit_latency", func(c *Cache) any { return &c.HitLatency }),
		field("replacement", func(c *Cache) any { return &c.Replacement }),
		field("write_back", func(c *Cache) any { return &c.WriteBack }),
		field("throughput", func(c *Cache) any { return &c.Throughput }),
	}
}

// Marshal renders g as configuration-file text, about 1.1 KB.
func Marshal(g GPU) []byte {
	b := append(make([]byte, 0, 1536), "# Swift-Sim hardware configuration: "...)
	b = append(append(b, g.Name...), '\n')
	for _, k := range keys {
		b = append(append(b, k.name...), " = "...)
		switch p := k.field(&g).(type) {
		case *int:
			b = strconv.AppendInt(b, int64(*p), 10)
		case *bool:
			b = strconv.AppendBool(b, *p)
		case *string:
			b = append(b, *p...)
		case fmt.Stringer:
			b = append(b, p.String()...)
		}
		b = append(b, '\n')
	}
	return b
}

// WriteFile writes g to path in configuration-file format.
func WriteFile(path string, g GPU) error {
	return os.WriteFile(path, Marshal(g), 0o644)
}

// LoadFile reads and validates a configuration file. An optional
// "gpu.base" key names a preset to start from, so files may override only a
// few parameters.
func LoadFile(path string) (GPU, error) {
	f, err := os.Open(path)
	if err != nil {
		return GPU{}, fmt.Errorf("config: %w", err)
	}
	defer f.Close()
	g, err := Parse(f)
	if err != nil {
		return GPU{}, fmt.Errorf("config: %s: %w", path, err)
	}
	return g, nil
}

// Parse reads configuration text from r and returns the validated GPU.
func Parse(r io.Reader) (GPU, error) {
	var lines [][2]string // key, value in file order
	seen := make(map[string]bool)
	base := ""
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return GPU{}, fmt.Errorf("line %d: expected key = value, got %q", lineNo, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		if key == "" || val == "" {
			return GPU{}, fmt.Errorf("line %d: empty key or value in %q", lineNo, line)
		}
		if seen[key] {
			return GPU{}, fmt.Errorf("line %d: duplicate key %q", lineNo, key)
		}
		seen[key] = true
		if key == "gpu.base" {
			base = val
		} else {
			lines = append(lines, [2]string{key, val})
		}
	}
	if err := sc.Err(); err != nil {
		return GPU{}, err
	}

	var g GPU
	if base != "" {
		pg, ok := Preset(base)
		if !ok {
			return GPU{}, fmt.Errorf("gpu.base: unknown preset %q (have %v)", base, PresetNames())
		}
		g = pg
	}
	for _, l := range lines {
		if err := set(&g, l[0], l[1]); err != nil {
			return GPU{}, err
		}
	}
	if err := g.Validate(); err != nil {
		return GPU{}, err
	}
	return g, nil
}

// set parses val into the field of the key called name.
func set(g *GPU, name, val string) error {
	k, ok := keyIndex[name]
	if !ok {
		return fmt.Errorf("unknown configuration key %q", name)
	}
	switch p := k.field(g).(type) {
	case *int:
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("%s: %q is not an integer", name, val)
		}
		*p = n
	case *bool:
		b, err := strconv.ParseBool(val)
		if err != nil {
			return fmt.Errorf("%s: %q is not a boolean", name, val)
		}
		*p = b
	case *string:
		*p = val
	case *topology:
		*p = topology(val)
	case *SchedPolicy:
		v, err := ParseSchedPolicy(val)
		if err != nil {
			return err
		}
		*p = v
	case *Replacement:
		v, err := ParseReplacement(val)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		*p = v
	}
	return nil
}
