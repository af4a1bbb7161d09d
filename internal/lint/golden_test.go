package lint

import (
	"path/filepath"
	"regexp"
	"testing"
)

// Golden tests: each analyzer runs over a testdata/src package whose
// flagged lines carry `// want "regex"` comments (the analysistest
// convention).

func TestErrSentinelGolden(t *testing.T) { runGolden(t, ErrSentinel, "errsentinel_a") }

// wantSpec is one expectation parsed from a `// want "regex"` comment.
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantQuoted extracts the quoted or backquoted regexes after `want`.
var wantQuoted = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// runGolden loads the named testdata packages (dependencies load
// implicitly), runs one analyzer over everything, and matches the
// findings one-to-one against the want comments.
func runGolden(t *testing.T, a *Analyzer, pkgs ...string) {
	t.Helper()
	extra, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader("golden.invalid/none", extra)
	l.ExtraDir = extra
	for _, p := range pkgs {
		if _, err := l.Load(p); err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
	}
	diags, err := RunAnalyzers(l, []*Analyzer{a}, nil)
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, l)
	matched := make([]bool, len(diags))
	for _, w := range wants {
		ok := false
		for i, d := range diags {
			if matched[i] {
				continue
			}
			pos := l.Fset.Position(d.Pos)
			if pos.Filename == w.file && pos.Line == w.line && w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: no diagnostic matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			pos := l.Fset.Position(d.Pos)
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
}

// collectWants scans every loaded file for want comments.
func collectWants(t *testing.T, l *Loader) []wantSpec {
	t.Helper()
	var wants []wantSpec
	for _, pkg := range l.Order() {
		for _, f := range pkg.Files {
			tf := l.Fset.File(f.Pos())
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					idx := regexp.MustCompile(`// want `).FindStringIndex(c.Text)
					if idx == nil {
						continue
					}
					line := tf.Line(c.Pos())
					specs := wantQuoted.FindAllStringSubmatch(c.Text[idx[1]:], -1)
					if len(specs) == 0 {
						t.Fatalf("%s:%d: want comment without a quoted regex", tf.Name(), line)
					}
					for _, m := range specs {
						pat := m[1]
						if m[2] != "" {
							pat = m[2]
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want regex %q: %v", tf.Name(), line, pat, err)
						}
						wants = append(wants, wantSpec{file: tf.Name(), line: line, re: re})
					}
				}
			}
		}
	}
	return wants
}
