package analysis

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestLockOrderDoubleLock covers the re-acquisition findings: double
// Lock, RLock-under-Lock, and the RLock→Lock upgrade, with nested read
// locks staying legal.
func TestLockOrderDoubleLock(t *testing.T) {
	got := checkFixture(t, LockOrder, "fix", map[string]string{
		"locks.go": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	rw sync.RWMutex
}

func (s *S) double() {
	s.mu.Lock()
	s.mu.Lock() // line 12: deadlock
	s.mu.Unlock()
	s.mu.Unlock()
}

func (s *S) upgrade() {
	s.rw.RLock()
	s.rw.Lock() // line 19: upgrade deadlock
	s.rw.Unlock()
	s.rw.RUnlock()
}

func (s *S) readUnderWrite() {
	s.rw.Lock()
	s.rw.RLock() // line 26: RLock under Lock
	s.rw.RUnlock()
	s.rw.Unlock()
}

func (s *S) sharedReaders() {
	s.rw.RLock()
	s.rw.RLock() // nested read locks are fine
	s.rw.RUnlock()
	s.rw.RUnlock()
}
`,
	})
	wantDiags(t, got, []string{
		"locks.go:12:lockorder",
		"locks.go:19:lockorder",
		"locks.go:26:lockorder",
	})
}

// TestLockOrderUnlockSomePaths covers the lock-released-on-some-paths
// finding: a conditional early return that skips the unlock is
// reported at the acquisition, while balanced paths and deferred
// unlocks stay clean.
func TestLockOrderUnlockSomePaths(t *testing.T) {
	got := checkFixture(t, LockOrder, "fix", map[string]string{
		"paths.go": `package fix

import "sync"

type P struct {
	mu   sync.Mutex
	n    int
	done bool
}

func (p *P) leaky() int {
	p.mu.Lock() // line 12: held on the early-return path
	if p.done {
		return 0 // forgot the unlock
	}
	n := p.n
	p.mu.Unlock()
	return n
}

func (p *P) deferred() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.done {
		return 0
	}
	return p.n
}

func (p *P) balanced() int {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return 0
	}
	n := p.n
	p.mu.Unlock()
	return n
}
`,
	})
	wantDiags(t, got, []string{"paths.go:12:lockorder"})
}

// TestLockOrderIntraCycle seeds an A→B / B→A inversion inside one
// package: both closing acquisitions are reported, each naming the
// other site.
func TestLockOrderIntraCycle(t *testing.T) {
	got := checkFixture(t, LockOrder, "fix", map[string]string{
		"cycle.go": `package fix

import "sync"

var muA, muB sync.Mutex

func ab() {
	muA.Lock()
	muB.Lock() // line 9: A→B
	muB.Unlock()
	muA.Unlock()
}

func ba() {
	muB.Lock()
	muA.Lock() // line 16: B→A
	muA.Unlock()
	muB.Unlock()
}
`,
	})
	wantDiags(t, got, []string{
		"cycle.go:9:lockorder",
		"cycle.go:16:lockorder",
	})
}

// TestLockOrderCrossPackageCycle is the seeded cross-package
// inversion from the acceptance criteria: package fixa orders A→B
// directly; package fixb takes B and then calls back into fixa's
// TakeA, so the B→A edge only exists via call-graph propagation of the
// held-lock set. Both edges of the cycle must be reported, each in the
// package owning the closing acquisition.
func TestLockOrderCrossPackageCycle(t *testing.T) {
	got := checkModuleFixture(t, LockOrder, map[string]map[string]string{
		"fixa": {"a.go": `package fixa

import "sync"

var MuA, MuB sync.Mutex

func AB() {
	MuA.Lock()
	MuB.Lock() // line 9: A→B directly
	MuB.Unlock()
	MuA.Unlock()
}

func TakeA() {
	MuA.Lock() // line 15: B→A lands here via fixb.BA's held set
	MuA.Unlock()
}
`},
		"fixb": {"b.go": `package fixb

import "fixa"

func BA() {
	fixa.MuB.Lock()
	defer fixa.MuB.Unlock()
	fixa.TakeA() // holds MuB while TakeA acquires MuA
}
`},
	})
	wantDiags(t, got, []string{
		"a.go:9:lockorder",
		"a.go:15:lockorder",
	})
}

// TestLockOrderReentrantCall covers the cross-function double lock: a
// call made with a mutex held into a callee that (transitively)
// acquires the same mutex.
func TestLockOrderReentrantCall(t *testing.T) {
	got := checkFixture(t, LockOrder, "fix", map[string]string{
		"reent.go": `package fix

import "sync"

type R struct {
	mu sync.Mutex
	n  int
}

func (r *R) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *R) Report() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.Count() + 1 // line 19: re-entrant via call
}

func (r *R) viaHelper() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return helper(r) // line 25: transitive through helper
}

func helper(r *R) int { return r.Count() }
`,
	})
	wantDiags(t, got, []string{
		"reent.go:19:lockorder",
		"reent.go:25:lockorder",
	})
}

// TestLockOrderGoroutineBoundary pins the goroutine semantics: locks
// held at a go statement do not leak into the spawned body (no false
// re-entrancy), but the body's own acquisition order still feeds the
// global graph and can complete a cycle.
func TestLockOrderGoroutineBoundary(t *testing.T) {
	got := checkFixture(t, LockOrder, "fix", map[string]string{
		"gor.go": `package fix

import "sync"

var gmuA, gmuB sync.Mutex

func spawnWhileHeld() {
	gmuA.Lock()
	go func() {
		gmuA.Lock() // runs on another goroutine: not a double lock
		gmuA.Unlock()
	}()
	gmuA.Unlock()
}

func orderInGoroutine() {
	go func() {
		gmuB.Lock()
		gmuA.Lock() // line 19: B→A, inverting abOrder's A→B
		gmuA.Unlock()
		gmuB.Unlock()
	}()
}

func abOrder() {
	gmuA.Lock()
	gmuB.Lock() // line 27: A→B
	gmuB.Unlock()
	gmuA.Unlock()
}
`,
	})
	wantDiags(t, got, []string{
		"gor.go:19:lockorder",
		"gor.go:27:lockorder",
	})
}

// TestLockOrderIgnoreSuppressesCycleEdge is the cross-package
// suppression regression from the satellite list: a //lint:ignore at
// the reported site of a call-graph-propagated cycle edge must
// suppress that edge (and only that edge), even though the fact chain
// that produced it crosses packages.
func TestLockOrderIgnoreSuppressesCycleEdge(t *testing.T) {
	got := checkModuleFixture(t, LockOrder, map[string]map[string]string{
		"fixa": {"a.go": `package fixa

import "sync"

var MuA, MuB sync.Mutex

func AB() {
	MuA.Lock()
	//lint:ignore lockorder seeded inversion, order documented elsewhere
	MuB.Lock()
	MuB.Unlock()
	MuA.Unlock()
}

func TakeA() {
	MuA.Lock() // line 16: still reported
	MuA.Unlock()
}
`},
		"fixb": {"b.go": `package fixb

import "fixa"

func BA() {
	fixa.MuB.Lock()
	defer fixa.MuB.Unlock()
	fixa.TakeA()
}
`},
	})
	wantDiags(t, got, []string{"a.go:16:lockorder"})
}

// TestLockOrderClosureUnits pins the "runs in place" classification
// shared by the per-function summaries and the unit split: a closure
// that is only stored, or launched through a variable with `go cl()`,
// does not run on the declaring function's lock path, so calling that
// function with the lock held is neither a re-entrant deadlock nor an
// order edge.
func TestLockOrderClosureUnits(t *testing.T) {
	cases := map[string]string{
		"stored closure": `package fix

import "sync"

type S struct {
	mu sync.Mutex
	cb func()
}

func (s *S) register() {
	s.cb = func() {
		s.mu.Lock()
		s.mu.Unlock()
	}
}

func (s *S) caller() {
	s.mu.Lock()
	s.register()
	s.mu.Unlock()
}
`,
		"go through a closure variable": `package fix

import "sync"

type T struct {
	a, b sync.Mutex
}

func (t *T) spawn() {
	cl := func() {
		t.b.Lock()
		t.b.Unlock()
	}
	go cl()
}

func (t *T) caller() {
	t.b.Lock()
	t.spawn()
	t.b.Unlock()
}
`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			wantDiags(t, checkFixture(t, LockOrder, "fix", map[string]string{"a.go": src}), nil)
		})
	}
}

// TestMutexHygieneLockBalance covers lock/unlock pairing, which
// lockorder's held-at-exit finding owns: a lock never released, released
// on the wrong side (RLock paired with Unlock), or released only on an
// unrelated receiver is reported at its acquisition; deferred, early and
// closure releases balance.
func TestMutexHygieneLockBalance(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"lock with no unlock", `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Bad() {
	s.mu.Lock()
}
`, []string{"a.go:8:lockorder"}},
		{"deferred unlock balances", `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Good() {
	s.mu.Lock()
	defer s.mu.Unlock()
}
`, nil},
		{"conditional early unlock balances (dnswire Close pattern)", `package x

import "sync"

type S struct {
	mu     sync.Mutex
	closed bool
}

func (s *S) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	return nil
}
`, nil},
		{"rlock needs runlock, not unlock", `package x

import "sync"

type S struct{ mu sync.RWMutex }

func (s *S) Bad() {
	s.mu.RLock()
	s.mu.Unlock()
}

func (s *S) Good() {
	s.mu.RLock()
	s.mu.RUnlock()
}
`, []string{"a.go:8:lockorder"}},
		{"different receivers tracked separately", `package x

import "sync"

type S struct{ a, b sync.Mutex }

func (s *S) Bad() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
}
`, []string{"a.go:8:lockorder"}},
		{"non-sync Lock method is not tracked", `package x

type flock struct{}

func (flock) Lock() {}

func f(fl flock) {
	fl.Lock()
}
`, nil},
		{"unlock in deferred closure balances", `package x

import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Good() {
	s.mu.Lock()
	defer func() { s.mu.Unlock() }()
}
`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			files := map[string]string{"a.go": tc.src}
			wantDiags(t, checkFixture(t, LockOrder, "anycastcdn/internal/fixture", files), tc.want)
		})
	}
}

// TestMutexHygieneCopies pins the owner of the lock-copy invariant: a
// value holding a sync lock must not be copied, or the original and the
// copy silently stop excluding each other. `go vet`'s copylocks check,
// which ci.sh runs over the module, enforces it; each case is vetted as
// its own package of a scratch module and must be reported at exactly
// the wanted lines (counted from the shared three-line header).
func TestMutexHygieneCopies(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	const header = "package x\n\nimport \"sync\"\n"
	cases := []struct {
		name string
		src  string
		want []int
	}{
		{"mutex parameter by value", "func f(mu sync.Mutex) { _ = mu }", []int{4}},
		{"pointer parameter is fine", "func f(mu *sync.Mutex) { _ = mu }", nil},
		// parameter of use, parameter of f, assignment t := s, arg use(t)
		{"struct containing a lock passed and assigned by value", `type S struct {
	mu sync.Mutex
	n  int
}
func use(S) {}
func f(s S) {
	t := s
	use(t)
}`, []int{8, 9, 10, 11}},
		{"value receiver with embedded rwmutex", `type S struct{ sync.RWMutex }
func (s S) Get() int { return 0 }`, []int{5}},
		// the range value, and vet also flags its copy into _
		{"range over lock-bearing slice values", `type S struct{ mu sync.Mutex }
func f(ss []S) {
	for _, s := range ss {
		_ = s
	}
}`, []int{6, 7}},
		{"constructing fresh values is fine", `type S struct {
	mu sync.Mutex
	n  int
}
func f() *S {
	s := S{n: 1}
	return &s
}`, nil},
		{"dereferenced return copies", `type S struct{ mu sync.Mutex }
func get(p *S) S { return *p }`, []int{5}},
	}
	dir := t.TempDir()
	write := func(name, body string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module vetfixture\n\ngo 1.24\n")
	for i, tc := range cases {
		write(fmt.Sprintf("p%d/a.go", i), header+tc.src+"\n")
	}
	cmd := exec.Command(goTool, "vet", "-copylocks", "./...")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOFLAGS=", "GOWORK=off", "GOPROXY=off")
	out, err := cmd.CombinedOutput()
	got := map[int][]string{}
	for _, m := range regexp.MustCompile(`p(\d+)/a\.go:(\d+):`).FindAllStringSubmatch(string(out), -1) {
		var pkg int
		fmt.Sscan(m[1], &pkg)
		got[pkg] = append(got[pkg], m[2])
	}
	if len(got) == 0 {
		t.Fatalf("go vet reported nothing (err %v):\n%s", err, out)
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var want []string
			for _, line := range tc.want {
				want = append(want, fmt.Sprint(line))
			}
			wantDiags(t, got[i], want)
		})
	}
}
