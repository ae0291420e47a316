package lintkit

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// RunTest applies the analyzer to the single package formed by the .go
// files in dir, pretending the package lives at importPath (so the
// analyzer's Packages filter is exercised exactly as in production),
// and checks the findings against `// want "regexp"` comments in the
// analysistest convention: every want must be matched by a diagnostic
// on its line, and every diagnostic must be matched by a want.
func RunTest(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := checkDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, a, dir, []*Package{pkg})
}

// RunTestNone asserts the analyzer reports nothing for dir when the
// package is placed at importPath — used to prove package filters and
// allowlist markers suppress as designed.
func RunTestNone(t *testing.T, a *Analyzer, dir, importPath string) {
	t.Helper()
	pkg, err := checkDir(dir, importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unexpected diagnostic for %s: %s", importPath, d)
	}
}

// RunTestModule applies the analyzer to a testdata tree laid out as a
// miniature module: every directory below root that contains .go files
// is one package whose import path is its slash-separated path relative
// to root (testdata/flagged/repro/internal/transport becomes
// "repro/internal/transport", exercising the analyzer's Packages filter
// exactly as in production). Imports between these packages resolve
// inside the tree; everything else comes from the standard library.
// Findings are checked against `// want` comments across the whole
// tree, same convention as RunTest.
func RunTestModule(t *testing.T, a *Analyzer, root string) {
	t.Helper()
	pkgs, err := loadTestModule(root)
	if err != nil {
		t.Fatal(err)
	}
	checkWants(t, a, root, pkgs)
}

// checkDir parses and type-checks the files of dir as one package,
// resolving imports from the standard library only (testdata imports
// nothing else).
func checkDir(dir, importPath string) (*Package, error) {
	names, err := goFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	pkgs, err := newLoader([]*listPkg{{ImportPath: importPath, Dir: dir, GoFiles: names}}).load([]string{importPath})
	if err != nil {
		return nil, err
	}
	return pkgs[0], nil
}

// loadTestModule type-checks every package of a RunTestModule tree, in
// import-path order.
func loadTestModule(root string) ([]*Package, error) {
	var metas []*listPkg
	var paths []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		names, err := goFiles(p)
		if err != nil || len(names) == 0 {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		metas = append(metas, &listPkg{ImportPath: filepath.ToSlash(rel), Dir: p, GoFiles: names})
		paths = append(paths, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no .go files under %s", root)
	}
	sort.Strings(paths)
	return newLoader(metas).load(paths)
}

// goFiles lists the names of the .go files in dir, sorted.
func goFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

type want struct {
	file string // slash path relative to the test root
	line int
	re   *regexp.Regexp
}

var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// checkWants runs a over pkgs, loaded from below root, and matches its
// findings against the want comments of the packages' files.
func checkWants(t *testing.T, a *Analyzer, root string, pkgs []*Package) {
	t.Helper()
	diags, err := RunAnalyzers(pkgs, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	rel := func(path string) string {
		r, err := filepath.Rel(root, path)
		if err != nil {
			t.Fatal(err)
		}
		return filepath.ToSlash(r)
	}
	var wants []want
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			path := pkg.Fset.File(f.Pos()).Name()
			ws, err := parseWants(path, rel(path))
			if err != nil {
				t.Fatal(err)
			}
			wants = append(wants, ws...)
		}
	}
	sort.SliceStable(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	matched := make([]bool, len(diags))
	for _, w := range wants {
		ok := false
		for i, d := range diags {
			if matched[i] || rel(d.Pos.Filename) != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// parseWants extracts the want comments of one file, keyed as name.
func parseWants(path, name string) ([]want, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var wants []want
	for i, line := range strings.Split(string(data), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, arg := range wantArgRe.FindAllStringSubmatch(m[1], -1) {
			pat := arg[1]
			if pat == "" && arg[2] != "" {
				unq, err := strconv.Unquote(`"` + arg[2] + `"`)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want string: %v", name, i+1, err)
				}
				pat = unq
			}
			re, err := regexp.Compile(pat)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad want regexp: %v", name, i+1, err)
			}
			wants = append(wants, want{file: name, line: i + 1, re: re})
		}
	}
	return wants, nil
}
