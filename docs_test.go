package repro

// Documentation hygiene checks, run by the CI docs job (and any plain
// `go test .`): every relative markdown link in the top-level docs and
// docs/ must resolve to a real file (and, for #fragments, a real
// heading), so internal references cannot rot silently.

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/service"
)

// docFiles returns the markdown files under link-check: the top-level
// docs plus everything in docs/.
func docFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "CHANGES.md"}
	entries, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, entries...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// flagDef matches a flag definition in a cmd/*/main.go, on the package
// FlagSet (flag.X, flag.XVar) or the command's own (fs.X), and captures
// the flag's name.
var flagDef = regexp.MustCompile(`\b(?:flag|fs)\.(?:String|Int|Int64|Bool|Duration|Float64)(?:Var\(&[^,]+,\s*|\()"([^"]+)"`)

// slug reduces a heading to its GitHub anchor form.
func slug(heading string) string {
	s := strings.ToLower(strings.TrimSpace(heading))
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchors collects the heading anchors of one markdown file.
func anchors(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence || !strings.HasPrefix(line, "#") {
			continue
		}
		out[slug(strings.TrimLeft(line, "# "))] = true
	}
	return out
}

func TestDocLinks(t *testing.T) {
	checked := 0
	for _, file := range docFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%s: %v (listed in docFiles but missing)", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue // external; CI has no network, existence is not ours to check
			}
			checked++
			path, frag, _ := strings.Cut(target, "#")
			resolved := file
			if path != "" {
				resolved = filepath.Join(filepath.Dir(file), path)
				if _, err := os.Stat(resolved); err != nil {
					t.Errorf("%s: broken link %q: %v", file, target, err)
					continue
				}
			}
			if frag != "" && strings.HasSuffix(resolved, ".md") {
				if !anchors(t, resolved)[frag] {
					t.Errorf("%s: link %q: no heading with anchor #%s in %s", file, target, frag, resolved)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("link checker matched no relative links; is the regexp broken?")
	}
}

// TestDocsMentionAllFlags pins README.md and docs/API.md to the actual
// probconsd flag set: every flag defined in cmd/probconsd/main.go must be
// documented, so the docs cannot drift from the binary again.
func TestDocsMentionAllFlags(t *testing.T) {
	src, err := os.ReadFile("cmd/probconsd/main.go")
	if err != nil {
		t.Fatal(err)
	}
	var flags []string
	for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
		flags = append(flags, m[1])
	}
	if len(flags) < 4 {
		t.Fatalf("found only %d probconsd flags (%v); parser broken?", len(flags), flags)
	}
	for _, doc := range []string{"README.md", "docs/API.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range flags {
			if !strings.Contains(string(data), fmt.Sprintf("-%s", f)) {
				t.Errorf("%s does not document probconsd flag -%s", doc, f)
			}
		}
	}
}

// TestDocsMentionAllRoutes pins docs/API.md and the two endpoint lists in
// package comments (the daemon's and internal/service's) to the route
// table: every path Server.Handler registers (read from its route(...)
// calls and confirmed live against the handler, so a path in dead code
// does not count) plus the flight recorder's /debug/requests must appear
// in each.
func TestDocsMentionAllRoutes(t *testing.T) {
	src, err := os.ReadFile("internal/service/service.go")
	if err != nil {
		t.Fatal(err)
	}
	paths := []string{"/debug/requests"} // mounted by cmd/probconsd, not by Handler
	handler := service.New(service.Options{Workers: 1}).Handler()
	for _, m := range regexp.MustCompile(`\broute\("(/[^"]+)"`).FindAllStringSubmatch(string(src), -1) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, m[1], nil))
		if rec.Code == http.StatusNotFound {
			t.Errorf("internal/service/service.go names route %s but Handler() answers it 404", m[1])
		}
		paths = append(paths, m[1])
	}
	if len(paths) < 8 {
		t.Fatalf("found only %d routes (%v); parser broken?", len(paths), paths)
	}
	for _, doc := range []string{"docs/API.md", "cmd/probconsd/main.go", "internal/service/doc.go"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range paths {
			if !strings.Contains(string(data), p) {
				t.Errorf("%s does not mention %s", doc, p)
			}
		}
	}
}

// TestObservabilityDocCoversAllMetrics pins docs/OBSERVABILITY.md to the
// actual /metrics surface in both directions: every family a live server
// exports (server and engine registries alike) must be documented by
// name, and every probcons_*/probconsd_* name the doc spells must be one
// of them — a histogram's _bucket/_sum/_count series count as its
// family, and a name ending in _* must prefix at least one family.
func TestObservabilityDocCoversAllMetrics(t *testing.T) {
	data, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	families := service.New(service.Options{Workers: 1}).MetricFamilies()
	if len(families) < 10 {
		t.Fatalf("only %d metric families exported; introspection broken?", len(families))
	}
	exported := map[string]bool{}
	for _, fam := range families {
		exported[fam.Name] = true
		if !strings.Contains(doc, fam.Name) {
			t.Errorf("docs/OBSERVABILITY.md does not document metric family %s (%s)", fam.Name, fam.Kind)
		}
	}
	named := regexp.MustCompile(`\bprobconsd?_[a-z0-9_]*`).FindAllString(doc, -1)
	if len(named) < len(families) {
		t.Fatalf("only %d metric names found in docs/OBSERVABILITY.md; is the regexp broken?", len(named))
	}
	for _, name := range named {
		if prefix, ok := strings.CutSuffix(name, "_"); ok {
			if !hasFamilyWithPrefix(exported, prefix+"_") {
				t.Errorf("docs/OBSERVABILITY.md names %s*, which prefixes no exported family", name)
			}
			continue
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			family = strings.TrimSuffix(family, suffix)
		}
		if !exported[name] && !exported[family] {
			t.Errorf("docs/OBSERVABILITY.md names metric family %s, which a live server does not export", name)
		}
	}
}

func hasFamilyWithPrefix(exported map[string]bool, prefix string) bool {
	for name := range exported {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// TestReadmeCommandsUseRealFlags is TestDocsMentionAllFlags in the other
// direction, for all four binaries: every `go run ./cmd/<name> …` command
// in README.md, docs/ and the verify skill, and every bare `probconsd
// -flag …` invocation in README.md, docs/ and the daemon's package
// comment, uses only flags that cmd/<name>/main.go defines, so a deleted
// flag cannot live on in an example.
func TestReadmeCommandsUseRealFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	var daemonComment string
	for _, name := range []string{"nines", "probsim", "costopt", "probconsd"} {
		src, err := os.ReadFile(filepath.Join("cmd", name, "main.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined[name] = map[string]bool{}
		for _, m := range flagDef.FindAllStringSubmatch(string(src), -1) {
			defined[name][m[1]] = true
		}
		if len(defined[name]) < 4 {
			t.Fatalf("found only %d %s flags; parser broken?", len(defined[name]), name)
		}
		if name == "probconsd" {
			daemonComment, _, _ = strings.Cut(string(src), "\npackage main")
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "README.md")
	texts := map[string]string{"cmd/probconsd/main.go": daemonComment}
	for _, file := range append(docs, ".claude/skills/verify/SKILL.md") {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		texts[file] = string(data)
	}
	for file, text := range texts {
		texts[file] = strings.ReplaceAll(text, "\\\n", " ") // shell line continuations
	}
	checked := 0
	// checkArgs checks every -flag in args against binary name's flags.
	checkArgs := func(file, name, shown, args string) {
		flags, ok := defined[name]
		if !ok {
			t.Errorf("%s: `%s`: no such binary", file, shown)
			return
		}
		for _, arg := range strings.Fields(args) {
			if !strings.HasPrefix(arg, "-") {
				continue // a flag's value
			}
			checked++
			f, _, _ := strings.Cut(strings.TrimLeft(arg, "-"), "=")
			if !flags[f] {
				t.Errorf("%s: `%s%s` uses -%s, which cmd/%s/main.go does not define", file, shown, args, f, name)
			}
		}
	}
	command := regexp.MustCompile("go run \\./cmd/(\\w+)([^|&;>#`\n]*)")
	for file, text := range texts {
		for _, m := range command.FindAllStringSubmatch(text, -1) {
			checkArgs(file, m[1], "go run ./cmd/"+m[1], m[2])
		}
	}
	// A bare daemon invocation: probconsd then a flag, not the go run
	// form above (its ./cmd/ prefix) and not the benchmark's build path.
	daemon := regexp.MustCompile("(?:^|[\\s`$(])probconsd( +-[^|&;>#`\n]*)")
	for _, file := range append(docs, "cmd/probconsd/main.go") {
		for _, m := range daemon.FindAllStringSubmatch(texts[file], -1) {
			checkArgs(file, "probconsd", "probconsd", m[1])
		}
	}
	if checked < 10 {
		t.Fatalf("checked only %d flags in documented commands; is the regexp broken?", checked)
	}
}
