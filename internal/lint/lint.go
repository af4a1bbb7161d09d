// Package lint holds the one invariant of the engine that neither the
// compiler, go vet, the code's own structure nor a run-time check
// holds: errors are matched with errors.Is / errors.As against
// exported sentinels (errsentinel.go). TestModuleErrorSentinels runs
// the rule over every package of the module as part of `go test ./...`.
// Invariants that a type, a package boundary or a test can hold live
// there instead: a relation is read only through unijoin.Relation.Pin,
// a frame header is parsed only inside internal/wire, internal/obs
// bounds its own series, and every pooled buffer comes back
// (internal/leakcheck, run by the TestMain of each package that
// borrows one).
//
// Check type-checks the named packages from source and reads every
// import from the compiler's export data (go list -export), so it needs
// only the standard library and the go command. There are no
// suppression annotations.
//
// Test files are out of scope. Tests compare with io.EOF by identity
// where a contract returns it unwrapped (io.Reader's Read and ReadAt,
// the wire decoders' Next), and a few assert an error's message text;
// errors.Is would weaken both.
package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Finding is one violation of the rule: where it is and what is wrong.
type Finding struct {
	Pos     token.Position
	Message string
}

func (f Finding) String() string { return f.Pos.String() + ": " + f.Message }

// Check runs the rule over the non-test files of the packages that the
// go list patterns name, relative to dir.
func Check(dir string, patterns ...string) ([]Finding, error) {
	args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Dir,GoFiles,Export,DepOnly"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) && len(ee.Stderr) > 0 {
			return nil, fmt.Errorf("go list: %s", strings.TrimSpace(string(ee.Stderr)))
		}
		return nil, fmt.Errorf("go list: %w", err)
	}
	type listed struct {
		ImportPath, Dir, Export string
		GoFiles                 []string
		DepOnly                 bool
	}
	var targets []listed
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listed
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %w", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.DepOnly && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	c := &checker{fset: fset}
	for _, p := range targets {
		files := make([]*ast.File, 0, len(p.GoFiles))
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		c.info = &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		conf := types.Config{Importer: imp}
		if _, err := conf.Check(p.ImportPath, fset, files, c.info); err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", p.ImportPath, err)
		}
		checkErrSentinels(c, files)
	}
	return c.findings, nil
}

// checker is the rule's view of one type-checked package, and the
// findings gathered so far.
type checker struct {
	fset     *token.FileSet
	info     *types.Info
	findings []Finding
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	c.findings = append(c.findings, Finding{c.fset.Position(pos), fmt.Sprintf(format, args...)})
}

// isErrorType reports whether t implements the error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorInterface) ||
		types.Implements(types.NewPointer(t), errorInterface)
}

var errorInterface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
