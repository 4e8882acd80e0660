package regress

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"hash/fnv"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// mutate runs the mutation driver instead of skipping it:
//
//	go test ./internal/regress/ -run '^TestMutate$' -mutate -timeout 0
//
// It rewrites testdata/mutate.txt (DESIGN.md §8).
var mutate = flag.Bool("mutate", false, "mutate the core simulator packages and rewrite testdata/mutate.txt")

const (
	// mutateSeed ranks the sites; mutatePerPkg is how many of each
	// package's first-ranked sites are run.
	mutateSeed   = 7
	mutatePerPkg = 25
	mutateRecord = "testdata/mutate.txt"
	// mutateMemory caps the address space of every command the driver
	// starts, so a mutant that allocates without bound fails instead of
	// exhausting the host.
	mutateMemory = 3 << 30
)

// mutatePackages are the simulator's core packages, under internal/.
var mutatePackages = [...]string{"engine", "mem", "cache", "noc", "dram", "smcore", "analytic", "reuse"}

// goldenPackages hold the goldens, digests, envelopes and allocation
// ceilings; a mutant its own package's tests miss survives only if these
// pass too.
var goldenPackages = []string{"./internal/regress/", "./internal/sim/"}

// A site is one mutant: the bytes [off, end) of file replaced by repl.
type site struct {
	file     string // base name
	fn       string // enclosing function, "-" at package level
	op       string // flip, andor, int, drop or zero
	from, to string // the mutation as shown in the record
	line     int
	col      int
	text     string // the site's source line, trimmed
	off, end int
	repl     string
	rank     uint64
}

// key identifies a site by what it is, not where: its file, function,
// mutation and source line. Triage carries over between runs by key.
func (s site) key() string {
	return strings.Join([]string{s.file, s.fn, s.mutation(), s.text}, "\t")
}

// pos is the site's file:line:column.
func (s site) pos() string { return fmt.Sprintf("%s:%d:%d", s.file, s.line, s.col) }

func (s site) mutation() string {
	if s.op == "drop" {
		return "drop"
	}
	return s.op + " " + s.from + " → " + s.to
}

// apply returns src with the mutant applied.
func (s site) apply(src []byte) []byte {
	out := make([]byte, 0, len(src)+len(s.repl))
	out = append(out, src[:s.off]...)
	out = append(out, s.repl...)
	return append(out, src[s.end:]...)
}

var flips = map[token.Token]token.Token{
	token.LSS: token.LEQ, token.LEQ: token.LSS,
	token.GTR: token.GEQ, token.GEQ: token.GTR,
	token.EQL: token.NEQ, token.NEQ: token.EQL,
	token.LAND: token.LOR, token.LOR: token.LAND,
}

// zeroOf spells the zero value of a result type, or "" when the type does
// not say it without type checking (a named type, a struct, an array).
func zeroOf(t ast.Expr) string {
	switch t := t.(type) {
	case *ast.Ident:
		switch t.Name {
		case "bool":
			return "false"
		case "error", "any":
			return "nil"
		case "int", "int8", "int16", "int32", "int64", "uint", "uint8", "uint16", "uint32", "uint64",
			"uintptr", "float32", "float64", "byte", "rune":
			return "0"
		}
	case *ast.StarExpr, *ast.MapType, *ast.ChanType, *ast.FuncType, *ast.InterfaceType:
		return "nil"
	case *ast.ArrayType:
		if t.Len == nil {
			return "nil"
		}
	}
	return ""
}

// zeros spells the zero value of every result of ft, or returns nil.
func zeros(ft *ast.FuncType) []string {
	if ft.Results == nil {
		return nil
	}
	var z []string
	for _, f := range ft.Results.List {
		v := zeroOf(f.Type)
		if v == "" {
			return nil
		}
		for n := max(len(f.Names), 1); n > 0; n-- {
			z = append(z, v)
		}
	}
	return z
}

// droppable reports whether dropping st is one of the driver's mutants: a
// call, an assignment other than :=, an increment or decrement, or an if
// without an init.
func droppable(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		_, ok := ast.Unparen(st.X).(*ast.CallExpr)
		return ok
	case *ast.AssignStmt:
		return st.Tok != token.DEFINE
	case *ast.IncDecStmt:
		return true
	case *ast.IfStmt:
		return st.Init == nil
	}
	return false
}

// funcName names a declared function as the record shows it: F, T.M or
// (*T).M.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	recv := d.Recv.List[0].Type
	if ix, ok := recv.(*ast.IndexExpr); ok {
		recv = ix.X
	}
	switch r := recv.(type) {
	case *ast.StarExpr:
		x := r.X
		if ix, ok := x.(*ast.IndexExpr); ok {
			x = ix.X
		}
		if id, ok := x.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + d.Name.Name
		}
	case *ast.Ident:
		return r.Name + "." + d.Name.Name
	}
	return d.Name.Name
}

// mutantSites lists every mutant of one source file in offset order.
func mutantSites(name string, src []byte) ([]site, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	tf := fset.File(f.Pos())
	lines := bytes.Split(src, []byte("\n"))
	var sites []site
	fn := "-"
	var results []*ast.FuncType // innermost function last
	add := func(pos token.Pos, end token.Pos, op, from, to, repl string) {
		p := tf.Position(pos)
		line := p.Line
		sites = append(sites, site{
			file: filepath.Base(name), fn: fn, op: op, from: from, to: to, line: line, col: p.Column,
			text: strings.Join(strings.Fields(string(lines[line-1])), " "),
			off:  tf.Offset(pos), end: tf.Offset(end), repl: repl,
		})
	}
	drops := func(list []ast.Stmt) {
		for _, st := range list {
			if droppable(st) {
				add(st.Pos(), st.End(), "drop", "", "", "")
			}
		}
	}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			switch stack[len(stack)-1].(type) {
			case *ast.FuncDecl:
				fn = "-"
				results = results[:len(results)-1]
			case *ast.FuncLit:
				results = results[:len(results)-1]
			}
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn = funcName(n)
			results = append(results, n.Type)
		case *ast.FuncLit:
			results = append(results, n.Type)
		case *ast.BinaryExpr:
			if to, ok := flips[n.Op]; ok {
				op := "flip"
				if n.Op == token.LAND || n.Op == token.LOR {
					op = "andor"
				}
				add(n.OpPos, n.OpPos+token.Pos(len(n.Op.String())), op, n.Op.String(), to.String(), to.String())
			}
		case *ast.BasicLit:
			if v, err := strconv.ParseUint(n.Value, 0, 63); n.Kind == token.INT && err == nil {
				to := strconv.FormatUint(v+1, 10)
				add(n.Pos(), n.End(), "int", n.Value, to, to)
			}
		case *ast.BlockStmt:
			drops(n.List)
		case *ast.CaseClause:
			drops(n.Body)
		case *ast.CommClause:
			drops(n.Body)
		case *ast.ReturnStmt:
			if len(results) == 0 || len(n.Results) == 0 {
				break
			}
			z := zeros(results[len(results)-1])
			if z == nil {
				break
			}
			from := make([]string, len(n.Results))
			for i, r := range n.Results {
				from[i] = string(src[tf.Offset(r.Pos()):tf.Offset(r.End())])
			}
			to := strings.Join(z, ", ")
			if strings.Join(from, ", ") != to {
				add(n.Results[0].Pos(), n.Results[len(n.Results)-1].End(), "zero",
					strings.Join(strings.Fields(strings.Join(from, ", ")), " "), to, to)
			}
		}
		return true
	})
	sort.SliceStable(sites, func(i, j int) bool { return sites[i].off < sites[j].off })
	return sites, nil
}

// sample ranks sites (in file, offset order) by a seeded hash of their key
// and its occurrence among equal keys, and returns the first n by rank. A
// site's rank does not depend on where it sits, so an edit elsewhere in a
// file leaves the rest of the sample as it was.
func sample(sites []site, seed uint64, n int) []site {
	seen := map[string]int{}
	ranked := make([]site, len(sites))
	for i, s := range sites {
		k := s.key()
		h := fnv.New64a()
		fmt.Fprintf(h, "%d\n%s\n%d", seed, k, seen[k])
		seen[k]++
		s.rank = h.Sum64()
		ranked[i] = s
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].rank < ranked[j].rank })
	return ranked[:min(n, len(ranked))]
}

// packageSites lists the mutants of every non-test file of dir, in (file,
// offset) order.
func packageSites(dir string) ([]site, map[string][]byte, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(names)
	var all []site
	srcs := map[string][]byte{}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, nil, err
		}
		s, err := mutantSites(name, src)
		if err != nil {
			return nil, nil, err
		}
		srcs[filepath.Base(name)] = src
		all = append(all, s...)
	}
	return all, srcs, nil
}

// Outcomes of a mutant.
const (
	killed   = "killed"
	timedOut = "timed out"
	survived = "survived"
	invalid  = "invalid"
)

// A mutant is one record line: a sampled site, what its run did, and a
// note: the tests that killed it (the kill matrix), a survivor's triage,
// or why it is invalid.
type mutant struct {
	pkg     string
	site    site
	outcome string
	note    string
}

func (m mutant) String() string {
	s := m.site
	return strings.Join([]string{m.pkg, s.pos(), s.fn, s.mutation(),
		m.outcome, s.text, m.note}, "\t")
}

// A pkgTally is one record header.
type pkgTally struct {
	pkg                                               string
	sites, sampled, killed, timedOut, survived, invld int
}

func (p pkgTally) String() string {
	return fmt.Sprintf("package %s: sites %d, sampled %d, killed %d, timed out %d, survived %d, invalid %d, score %s",
		p.pkg, p.sites, p.sampled, p.killed, p.timedOut, p.survived, p.invld, p.score())
}

// score is (killed + timed out) / (sampled − invalid).
func (p pkgTally) score() string {
	valid := p.sampled - p.invld
	if valid == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*float64(p.killed+p.timedOut)/float64(valid))
}

func (p *pkgTally) count(outcome string) {
	switch outcome {
	case killed:
		p.killed++
	case timedOut:
		p.timedOut++
	case survived:
		p.survived++
	case invalid:
		p.invld++
	}
}

const recordHead = `# Mutation record of the core simulator packages (DESIGN.md §8), written by
#   go test ./internal/regress/ -run '^TestMutate$' -mutate -timeout 0
# One header per package, then one line per sampled mutant, tab-separated:
# package, file:line:column, function, mutation, outcome, source line, and the
# tests that killed it or, for a survivor, its triage.
`

// writeRecord writes the headers and mutant lines of the packages run so
// far.
func writeRecord(path string, tallies []pkgTally, mutants []mutant) error {
	var b strings.Builder
	b.WriteString(recordHead)
	for _, p := range tallies {
		fmt.Fprintf(&b, "\n%s\n", p)
		for _, m := range mutants {
			if m.pkg == p.pkg {
				fmt.Fprintln(&b, m)
			}
		}
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// readRecord parses a record.
func readRecord(path string) ([]pkgTally, []mutant, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var tallies []pkgTally
	var mutants []mutant
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "package "):
			var p pkgTally
			var score string
			if _, err := fmt.Sscanf(line, "package %s sites %d, sampled %d, killed %d, timed out %d, survived %d, invalid %d, score %s",
				&p.pkg, &p.sites, &p.sampled, &p.killed, &p.timedOut, &p.survived, &p.invld, &score); err != nil {
				return nil, nil, fmt.Errorf("%s:%d: %v", path, n, err)
			}
			p.pkg = strings.TrimSuffix(p.pkg, ":")
			tallies = append(tallies, p)
		default:
			f := strings.Split(line, "\t")
			if len(f) != 7 {
				return nil, nil, fmt.Errorf("%s:%d: %d fields, want 7", path, n, len(f))
			}
			s := site{fn: f[2], text: f[5], op: f[3]}
			if _, err := fmt.Sscanf(strings.ReplaceAll(f[1], ":", " "), "%s %d %d", &s.file, &s.line, &s.col); err != nil {
				return nil, nil, fmt.Errorf("%s:%d: position %q: %v", path, n, f[1], err)
			}
			if op, m, ok := strings.Cut(f[3], " "); ok {
				s.op = op
				s.from, s.to, _ = strings.Cut(m, " → ")
			}
			mutants = append(mutants, mutant{pkg: f[0], site: s, outcome: f[4], note: f[6]})
		}
	}
	return tallies, mutants, sc.Err()
}

// runGo runs the go command in dir, in its own process group so a timeout
// kills the test binary too. A zero timeout means none.
func runGo(dir string, timeout time.Duration, args ...string) (out []byte, took time.Duration, timed bool, err error) {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = dir
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	start := time.Now()
	out, err = cmd.CombinedOutput()
	return out, time.Since(start), ctx.Err() != nil, err
}

// failedTests reads a go test -json stream and returns the top-level tests
// that failed, or, when the binary died mid-test, the tests left running.
func failedTests(stream []byte) []string {
	failed := map[string]bool{}
	running := map[string]bool{}
	for _, line := range bytes.Split(stream, []byte("\n")) {
		var ev struct{ Action, Test string }
		if json.Unmarshal(line, &ev) != nil || ev.Test == "" {
			continue
		}
		name, _, _ := strings.Cut(ev.Test, "/")
		switch ev.Action {
		case "run":
			running[name] = true
		case "pass", "skip":
			if ev.Test == name {
				delete(running, name)
			}
		case "fail":
			failed[name] = true
			delete(running, name)
		}
	}
	if len(failed) == 0 {
		failed = running
	}
	names := make([]string, 0, len(failed))
	for n := range failed {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// testRun is one timed go test -json run of some packages.
type testRun struct {
	dir     string
	pkgs    []string
	timeout time.Duration // 10× the clean run
}

// build compiles the packages' tests without running them, so the timed
// run that follows measures linking and testing, not compiling.
func (r testRun) build() error {
	for _, p := range r.pkgs {
		if out, _, _, err := runGo(r.dir, 0, "test", "-c", "-o", os.DevNull, p); err != nil {
			return fmt.Errorf("%s: %v\n%s", p, err, out)
		}
	}
	return nil
}

// run builds and runs the packages' tests and returns the outcome and, for
// a killed run, the failing tests.
func (r testRun) run() (outcome string, tests []string, took time.Duration, err error) {
	if err := r.build(); err != nil {
		return "", nil, 0, err
	}
	// The record is not simulator behaviour, and the copy's record is
	// stale while the driver rewrites it.
	args := append([]string{"test", "-json", "-count=1", "-skip", "^TestMutationRecord$"}, r.pkgs...)
	out, took, timed, err := runGo(r.dir, r.timeout, args...)
	switch {
	case timed:
		return timedOut, nil, took, nil
	case err != nil:
		return killed, failedTests(out), took, nil
	}
	return survived, nil, took, nil
}

// copyModule copies the module at root to dst, leaving out version control,
// the nested bench module and build output.
func copyModule(root, dst string) error {
	skip := map[string]bool{".git": true, ".claude": true, "bench": true, "prof": true, ".bench_build": true}
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if skip[rel] {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
}

// TestMutate samples mutatePerPkg mutants of each core package, runs each
// against its package's tests and, if they miss it, against the goldens,
// and rewrites testdata/mutate.txt. A survivor keeps the triage the
// previous record gave its key; a new one reads "untriaged", which
// TestMutationRecord rejects.
func TestMutate(t *testing.T) {
	if !*mutate {
		t.Skip("run with -mutate to rewrite " + mutateRecord)
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	triage := map[string]string{}
	if _, prev, err := readRecord(mutateRecord); err == nil {
		for _, m := range prev {
			if m.outcome == survived && m.note != "untriaged" {
				triage[m.pkg+"\t"+m.site.key()] = m.note
			}
		}
	}
	lim := syscall.Rlimit{Cur: mutateMemory, Max: mutateMemory}
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_AS, &old); err != nil {
		t.Fatal(err)
	}
	lim.Max = old.Max
	if err := syscall.Setrlimit(syscall.RLIMIT_AS, &lim); err != nil {
		t.Fatal(err)
	}
	defer syscall.Setrlimit(syscall.RLIMIT_AS, &old)

	work := t.TempDir()
	if err := copyModule(root, work); err != nil {
		t.Fatal(err)
	}
	// clean measures a package's unmutated run once; its mutants get ten
	// times as long.
	clean := func(pkgs ...string) testRun {
		r := testRun{dir: work, pkgs: pkgs}
		outcome, tests, took, err := r.run()
		if err != nil || outcome != survived {
			t.Fatalf("clean run of %v: %s %v %v", pkgs, outcome, tests, err)
		}
		r.timeout = 10 * took
		t.Logf("clean %v: %v", pkgs, took)
		return r
	}
	goldens := clean(goldenPackages...)
	var tallies []pkgTally
	var mutants []mutant
	for _, pkg := range mutatePackages {
		dir := filepath.Join(work, "internal", pkg)
		all, srcs, err := packageSites(dir)
		if err != nil {
			t.Fatal(err)
		}
		own := clean("./internal/" + pkg + "/")
		tally := pkgTally{pkg: pkg, sites: len(all)}
		for _, s := range sample(all, mutateSeed, mutatePerPkg) {
			m := mutant{pkg: pkg, site: s}
			path := filepath.Join(dir, s.file)
			if err := os.WriteFile(path, s.apply(srcs[s.file]), 0o644); err != nil {
				t.Fatal(err)
			}
			m.outcome, m.note = runMutant(own, goldens)
			if err := os.WriteFile(path, srcs[s.file], 0o644); err != nil {
				t.Fatal(err)
			}
			if m.outcome == survived {
				m.note = triage[pkg+"\t"+s.key()]
				if m.note == "" {
					m.note = "untriaged"
				}
			}
			t.Logf("%s", m)
			tally.sampled++
			tally.count(m.outcome)
			mutants = append(mutants, m)
		}
		tallies = append(tallies, tally)
		t.Logf("%s", tally)
		if err := writeRecord(mutateRecord, tallies, mutants); err != nil {
			t.Fatal(err)
		}
	}
}

// runMutant vets the mutant already written into the module copy, runs its
// package's tests and then the goldens, and returns its outcome and note.
func runMutant(own, goldens testRun) (outcome, note string) {
	if out, _, _, err := runGo(own.dir, 0, "vet", own.pkgs[0]); err != nil {
		return invalid, firstError(out)
	}
	for _, r := range []testRun{own, goldens} {
		outcome, tests, _, err := r.run()
		if err != nil {
			return invalid, firstError([]byte(err.Error()))
		}
		if outcome != survived {
			return outcome, strings.Join(tests, " ")
		}
	}
	return survived, ""
}

// firstError returns the first line of go command output that reports an
// error, flattened for a record column.
func firstError(out []byte) string {
	for _, l := range strings.Split(string(out), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			return strings.Join(strings.Fields(l), " ")
		}
	}
	return "vet failed"
}

// mutantSource exercises every operator; TestMutantSites counts its sites.
const mutantSource = `package p

var limit = 4

func f(a, b int, ok bool) (int, bool) {
	if a < b && ok {
		a++
	}
	b = a
	g()
	if c := a; c > 0 {
		return c, true
	}
	return 0, false
}

func g() *int {
	h := func() error { return errors.New("x") }
	_ = h
	return &limit
}
`

// TestMutantSites checks the driver without running a mutant: each
// operator's sites in mutantSource, that every mutant parses, and that the
// seeded sample is the same on every call.
func TestMutantSites(t *testing.T) {
	sites, err := mutantSites("p.go", []byte(mutantSource))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sites {
		got = append(got, fmt.Sprintf("%d %s %s", s.line, s.fn, s.mutation()))
		if _, err := parser.ParseFile(token.NewFileSet(), "p.go", s.apply([]byte(mutantSource)), 0); err != nil {
			t.Errorf("%s %s does not parse: %v", s.pos(), s.mutation(), err)
		}
	}
	want := []string{
		"3 - int 4 → 5",
		"6 f drop",
		"6 f flip < → <=",
		"6 f andor && → ||",
		"7 f drop",
		"9 f drop",
		"10 f drop",
		"11 f flip > → >=",
		"11 f int 0 → 1",
		"14 f int 0 → 1",
		"12 f zero c, true → 0, false",
		"19 g drop",
		"18 g zero errors.New(\"x\") → nil",
		"20 g zero &limit → nil",
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("sites:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	a, b := sample(sites, mutateSeed, 5), sample(sites, mutateSeed, 5)
	if len(a) != 5 {
		t.Fatalf("sampled %d sites, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("sample %d differs between calls: %v and %v", i, a[i], b[i])
		}
	}
}

// normalizeSpace collapses each run of white space in s to one space and
// trims the ends.
func normalizeSpace(s string) string { return strings.Join(strings.Fields(s), " ") }

var testFunc = regexp.MustCompile(`(?m)^func ((Test|Example)\w*)\(`)

// TestMutationRecord checks the committed record: each header's counts are
// its mutant lines' counts, each mutant's source line is still the line at
// its file:line (whitespace aside, so a gofmt realignment does not count),
// every survivor is triaged as equivalent with a reason, and every test the
// kill matrix names is a test in the module.
func TestMutationRecord(t *testing.T) {
	tallies, mutants, err := readRecord(mutateRecord)
	if err != nil {
		t.Fatal(err)
	}
	tests := map[string]bool{}
	root := filepath.Join("..", "..")
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		b, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(b, -1) {
			tests[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(tallies) != len(mutatePackages) {
		t.Errorf("record has %d packages, want %d", len(tallies), len(mutatePackages))
	}
	sources := map[string][]string{} // package/file → its lines
	for _, m := range mutants {
		path := filepath.Join(root, "internal", m.pkg, m.site.file)
		lines, ok := sources[path]
		if !ok {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Errorf("%s %s: %v", m.pkg, m.site.pos(), err)
			}
			lines = strings.Split(string(b), "\n")
			sources[path] = lines
		}
		if n := m.site.line; n < 1 || n > len(lines) || normalizeSpace(lines[n-1]) != normalizeSpace(m.site.text) {
			t.Errorf("%s %s: the record's source line %q is no longer there; run make mutate", m.pkg, m.site.pos(), m.site.text)
		}
	}
	for _, p := range tallies {
		got := pkgTally{pkg: p.pkg, sites: p.sites}
		for _, m := range mutants {
			if m.pkg != p.pkg {
				continue
			}
			got.sampled++
			got.count(m.outcome)
			switch m.outcome {
			case killed:
				for _, name := range strings.Fields(m.note) {
					if !tests[name] {
						t.Errorf("%s %s: killed by %s, which is no test in the module", m.pkg, m.site.pos(), name)
					}
				}
			case survived:
				if why, ok := strings.CutPrefix(m.note, "equivalent: "); !ok || why == "" {
					t.Errorf("%s %s %s survives with triage %q, want \"equivalent: <why>\"", m.pkg, m.site.pos(), m.site.mutation(), m.note)
				}
			case timedOut, invalid:
			default:
				t.Errorf("%s %s: outcome %q", m.pkg, m.site.pos(), m.outcome)
			}
		}
		if got != p {
			t.Errorf("header %q, its lines count %q", p, got)
		}
		if p.sampled != min(mutatePerPkg, p.sites) {
			t.Errorf("%s: sampled %d, want %d", p.pkg, p.sampled, mutatePerPkg)
		}
	}
}
