package repro

// The reachability gate, offline: "only code that something runs". Every
// non-test function declared under internal/ and probcons/ must be linked
// into a binary under cmd/ or examples/ or into this package's test binary
// (the experiment harness), or be named in deadcode.txt with a reason.
// CI's deadcode job asks golang.org/x/tools/cmd/deadcode the same
// question; this test asks the linker, which needs nothing installed:
//
//	REACHABILITY=1 go test -run TestReachability -v .

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// reasonBench is the one reason the test can check: the function must be
// linked into bench/'s own binaries.
const reasonBench = "called by `bench/`"

// deadcodeReasons are the only reasons deadcode.txt may give; "has a unit
// test" is not one.
var deadcodeReasons = []string{
	reasonBench,
	"public facade entry point",
	"method an otherwise-used interface requires",
	"owned by ROADMAP item ",
}

var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// linkedFuncs builds one binary with inlining off (so a call is a symbol)
// and adds its text symbols to set, type arguments stripped.
func linkedFuncs(t *testing.T, set map[string]bool, dir string, build ...string) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "bin")
	args := append(build, "-gcflags=all=-l", "-o", bin, ".")
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
	out, err := exec.Command("go", "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", dir, err)
	}
	for _, line := range strings.Split(string(out), "\n") {
		// "  4a1b20 T repro/internal/core.Analyze"; generic shapes put
		// spaces inside the name.
		f := strings.Fields(line)
		if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := strings.Join(f[2:], " ")
		for typeArgs.MatchString(name) {
			name = typeArgs.ReplaceAllString(name, "")
		}
		set[name] = true
	}
}

// declaredFunc is one non-test function: its name as deadcode prints it
// (repro/internal/qcache.PeerClient.Get) and the symbols the linker may
// give it (a value-receiver method can survive as its pointer wrapper).
type declaredFunc struct {
	name    string
	symbols []string
}

func declaredFuncs(t *testing.T, roots ...string) []declaredFunc {
	t.Helper()
	var out []declaredFunc
	fset := token.NewFileSet()
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			file, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			pkg := "repro/" + filepath.ToSlash(filepath.Dir(path))
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				if fd.Recv == nil {
					out = append(out, declaredFunc{pkg + "." + fd.Name.Name, []string{pkg + "." + fd.Name.Name}})
					continue
				}
				recv := fd.Recv.List[0].Type
				star, ptr := recv.(*ast.StarExpr)
				if ptr {
					recv = star.X
				}
				switch x := recv.(type) { // generic receiver: Cache[V]
				case *ast.IndexExpr:
					recv = x.X
				case *ast.IndexListExpr:
					recv = x.X
				}
				typ := recv.(*ast.Ident).Name
				f := declaredFunc{name: pkg + "." + typ + "." + fd.Name.Name}
				f.symbols = []string{pkg + ".(*" + typ + ")." + fd.Name.Name}
				if !ptr {
					f.symbols = append(f.symbols, pkg+"."+typ+"."+fd.Name.Name)
				}
				out = append(out, f)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestReachability(t *testing.T) {
	if os.Getenv("REACHABILITY") == "" {
		t.Skip("links every binary of the module; set REACHABILITY=1 to run")
	}
	roots := map[string]bool{} // binaries, examples, the experiment harness
	mains, _ := filepath.Glob("cmd/*")
	examples, _ := filepath.Glob("examples/*")
	for _, dir := range append(mains, examples...) {
		linkedFuncs(t, roots, dir, "build")
	}
	linkedFuncs(t, roots, ".", "test", "-c")
	bench := map[string]bool{}
	linkedFuncs(t, bench, "bench", "build")
	linkedFuncs(t, bench, "bench", "test", "-c")

	linked := func(set map[string]bool, f declaredFunc) bool {
		for _, s := range f.symbols {
			if set[s] {
				return true
			}
		}
		return false
	}
	funcs := declaredFuncs(t, "internal", "probcons")
	byName := map[string]declaredFunc{}
	var dead []string
	for _, f := range funcs {
		byName[f.name] = f
		if !linked(roots, f) {
			dead = append(dead, f.name)
		}
	}
	sort.Strings(dead)

	data, err := os.ReadFile("deadcode.txt")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		name, reason, _ := strings.Cut(line, "#")
		if name = strings.TrimSpace(name); name == "" {
			continue
		}
		reason = strings.TrimSpace(reason)
		listed[name] = reason
		allowed := false
		for _, r := range deadcodeReasons {
			allowed = allowed || strings.HasPrefix(reason, r)
		}
		if !allowed {
			t.Errorf("deadcode.txt: %s: reason %q is not one of %q", name, reason, deadcodeReasons)
		}
		if strings.HasPrefix(reason, reasonBench) && !linked(bench, byName[name]) {
			t.Errorf("deadcode.txt: %s is not linked into bench/'s binaries", name)
		}
	}
	for _, name := range dead {
		if _, ok := listed[name]; !ok {
			t.Errorf("%s is linked into no binary, example or harness and is not on deadcode.txt: delete it or list it with a reason", name)
		}
		delete(listed, name)
	}
	for name := range listed {
		t.Errorf("deadcode.txt lists %s, which is reachable (or gone): drop the line", name)
	}
	t.Logf("%d non-test functions under internal/ and probcons/, %d unreachable from cmd/, examples/ and the harness", len(funcs), len(dead))
}
