package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestModuleErrorSentinels holds every package of the module, commands
// and examples included, to the rule.
func TestModuleErrorSentinels(t *testing.T) {
	findings, err := Check("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestErrSentinelGolden runs the rule over a testdata package whose
// flagged lines carry `// want "regex"` comments (the analysistest
// convention) and matches the findings to them one-to-one.
func TestErrSentinelGolden(t *testing.T) {
	const dir = "testdata/src/errsentinel_a"
	findings, err := Check(".", "./"+dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := collectWants(t, dir)
	matched := make([]bool, len(findings))
	for _, w := range wants {
		ok := false
		for i, f := range findings {
			if !matched[i] && filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == w.line && w.re.MatchString(f.Message) {
				matched[i], ok = true, true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: no finding matching %q", w.file, w.line, w.re)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("%s:%d: unexpected finding: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message)
		}
	}
}

// wantSpec is one expectation parsed from a `// want "regex"` comment.
type wantSpec struct {
	file string
	line int
	re   *regexp.Regexp
}

// wantQuoted extracts the quoted or backquoted regexes after `want`.
var wantQuoted = regexp.MustCompile("\"((?:[^\"\\\\]|\\\\.)*)\"|`([^`]*)`")

// collectWants scans every Go file in dir for want comments.
func collectWants(t *testing.T, dir string) []wantSpec {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []wantSpec
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		file := filepath.Base(name)
		for i, text := range strings.Split(string(src), "\n") {
			_, rest, ok := strings.Cut(text, "// want ")
			if !ok {
				continue
			}
			specs := wantQuoted.FindAllStringSubmatch(rest, -1)
			if len(specs) == 0 {
				t.Fatalf("%s:%d: want comment without a quoted regex", file, i+1)
			}
			for _, m := range specs {
				pat := m[1]
				if m[2] != "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regex %q: %v", file, i+1, pat, err)
				}
				wants = append(wants, wantSpec{file: file, line: i + 1, re: re})
			}
		}
	}
	return wants
}
