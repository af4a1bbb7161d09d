package lint

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Main is the sjlint entry point (tools/cmd/sjlint is a thin shim
// around it): expand the package patterns with go list, load and
// type-check them plus their in-module dependencies, run the suite
// and print the findings. Exit status: 0 clean,
// 1 findings, 2 usage or load failure.
func Main(argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sjlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit one NDJSON object per finding instead of text")
	dir := fs.String("dir", "", "module directory to analyze (default: nearest enclosing engine module)")
	list := fs.Bool("list", false, "list the analyzers and their invariants, then exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: sjlint [-json] [-dir moduledir] packages...\n\n"+
			"sjlint vets the spatial-join engine against its error-matching\n"+
			"invariant. Patterns are go list patterns relative to\n"+
			"the module directory (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	if *list {
		for _, a := range Suite() {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	moduleDir, modulePath, err := resolveModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "sjlint:", err)
		return 2
	}
	targets, err := listPackages(moduleDir, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "sjlint:", err)
		return 2
	}

	loader := NewLoader(modulePath, moduleDir)
	targetSet := make(map[string]bool, len(targets))
	for _, path := range targets {
		targetSet[path] = true
		if _, err := loader.Load(path); err != nil {
			fmt.Fprintln(stderr, "sjlint:", err)
			return 2
		}
	}
	diags, err := RunAnalyzers(loader, Suite(), func(pkgPath string) bool { return targetSet[pkgPath] })
	if err != nil {
		fmt.Fprintln(stderr, "sjlint:", err)
		return 2
	}
	if len(diags) == 0 {
		return 0
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	enc := json.NewEncoder(w)
	for _, d := range diags {
		pos := loader.Fset.Position(d.Pos)
		if *jsonOut {
			// One NDJSON object per finding — the machine-readable
			// surface CI annotations and future tooling consume.
			enc.Encode(struct {
				File     string `json:"file"`
				Line     int    `json:"line"`
				Col      int    `json:"col"`
				Analyzer string `json:"analyzer"`
				Message  string `json:"message"`
			}{relPath(moduleDir, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message})
		} else {
			fmt.Fprintf(w, "%s:%d:%d: %s: %s\n",
				relPath(moduleDir, pos.Filename), pos.Line, pos.Column, d.Analyzer, d.Message)
		}
	}
	return 1
}

// relPath renders filename relative to the module directory when
// possible (stable CI output regardless of checkout location).
func relPath(moduleDir, filename string) string {
	if rel, err := filepath.Rel(moduleDir, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filename
}

// resolveModule locates the module to analyze: the explicit -dir, or
// the nearest enclosing go.mod — skipping over the tools module
// itself, so `cd tools && go run ./cmd/sjlint ./...` analyzes the
// engine module, not the tool shim.
func resolveModule(dir string) (moduleDir, modulePath string, err error) {
	start := dir
	if start == "" {
		start, err = os.Getwd()
		if err != nil {
			return "", "", err
		}
	}
	start, err = filepath.Abs(start)
	if err != nil {
		return "", "", err
	}
	for d := start; ; {
		if path, ok := readModulePath(filepath.Join(d, "go.mod")); ok {
			if strings.HasSuffix(path, "/tools") {
				// The sjlint shim module: its subject is the parent.
				parent := filepath.Dir(d)
				if ppath, ok := readModulePath(filepath.Join(parent, "go.mod")); ok {
					return parent, ppath, nil
				}
			}
			return d, path, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod found at or above %s", start)
		}
		d = parent
	}
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, bool) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", false
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(strings.Trim(rest, `"`)), true
		}
	}
	return "", false
}

// listPackages expands go list patterns inside moduleDir into import
// paths, skipping packages with no non-test Go files.
func listPackages(moduleDir string, patterns []string) ([]string, error) {
	args := append([]string{"list", "-f", "{{.ImportPath}}\t{{len .GoFiles}}"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go list: %s", strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("go list: %w", err)
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		path, n, ok := strings.Cut(line, "\t")
		if !ok || n == "0" || path == "" {
			continue
		}
		paths = append(paths, path)
	}
	return paths, nil
}
