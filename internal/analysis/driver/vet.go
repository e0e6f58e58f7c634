package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"p2pbound/internal/analysis"
)

// vetConfig mirrors the JSON compilation-unit description the go
// command writes for `go vet -vettool` tools (cmd/go/internal/work's
// vetConfig). Only the fields this driver consumes are declared.
type vetConfig struct {
	Compiler                  string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	ModulePath                string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Vet analyzes the single compilation unit described by configFile and
// returns the process exit code: 0 on success (including VetxOnly runs
// and tolerated type-check failures), 1 when diagnostics were reported
// or the unit could not be processed.
func Vet(stderr io.Writer, configFile string, analyzers []*analysis.Analyzer) int {
	cfg, err := readVetConfig(configFile)
	if err != nil {
		fmt.Fprintln(stderr, "p2pvet:", err)
		return 1
	}

	fset := token.NewFileSet()
	parsed, err := parseUnit(fset, cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "p2pvet:", err)
		return 1
	}

	pkg, info, err := checkUnit(fset, cfg, parsed)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(stderr, "p2pvet: typecheck of", cfg.ImportPath, "failed:", err)
		return 1
	}

	// Facts: the go command hands us one vetx file per direct
	// dependency; each already contains that dependency's transitive
	// fact closure, so merging the direct files yields the full view. A
	// missing or corrupt fact file is a hard error: silently narrowing
	// the fact view would let cross-package violations pass the gate.
	imported := NewFactSet()
	deps := make([]string, 0, len(cfg.PackageVetx))
	for dep := range cfg.PackageVetx {
		deps = append(deps, dep)
	}
	sort.Strings(deps)
	for _, dep := range deps {
		file := cfg.PackageVetx[dep]
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintln(stderr, "p2pvet: reading facts of", dep+":", err)
			return 1
		}
		fs, err := DecodeFactSet(data)
		if err != nil {
			fmt.Fprintln(stderr, "p2pvet: decoding facts of", dep, "("+file+"):", err)
			return 1
		}
		imported.Merge(fs)
	}

	isStandard := func(path string) bool {
		if cfg.Standard[path] {
			return true
		}
		// The unit's own path is absent from Standard (the map covers
		// dependencies only); a unit with no module is the standard
		// library being vetted for facts.
		return cfg.ModulePath == "" && path == cfg.ImportPath
	}

	diags, exported, err := RunPackage(analyzers, fset, parsed, pkg, info, cfg.ModulePath, imported, isStandard)
	if err != nil {
		fmt.Fprintln(stderr, "p2pvet:", err)
		return 1
	}

	// The vetx output must carry the transitive closure: downstream
	// units only receive the files of their direct dependencies.
	imported.Merge(exported)
	if cfg.VetxOutput != "" {
		if data, err := imported.Encode(); err == nil {
			_ = os.WriteFile(cfg.VetxOutput, data, 0o666)
		}
	}

	if cfg.VetxOnly {
		return 0
	}
	PrintDiagnostics(stderr, diags)
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func readVetConfig(configFile string) (*vetConfig, error) {
	data, err := os.ReadFile(configFile)
	if err != nil {
		return nil, err
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		return nil, fmt.Errorf("cannot decode vet config %s: %v", configFile, err)
	}
	if len(cfg.GoFiles) == 0 {
		return nil, fmt.Errorf("package has no Go files: %s", cfg.ImportPath)
	}
	return cfg, nil
}

func parseUnit(fset *token.FileSet, cfg *vetConfig) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// checkUnit type-checks the unit against the export data files the
// build system supplied in PackageFile, resolving source import paths
// through ImportMap exactly as the compiler did.
func checkUnit(fset *token.FileSet, cfg *vetConfig, files []*ast.File) (*types.Package, *types.Info, error) {
	compilerImporter := importer.ForCompiler(fset, compilerName(cfg.Compiler), func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(importPath)
	})
	tc := &types.Config{
		Importer:  imp,
		Sizes:     types.SizesFor("gc", build.Default.GOARCH),
		GoVersion: sanitizeGoVersion(cfg.GoVersion),
	}
	info := newTypesInfo()
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	return pkg, info, err
}

// compilerName defaults to gc; the build always fills Compiler, but the
// importer would otherwise panic on "".
func compilerName(name string) string {
	if name == "" {
		return "gc"
	}
	return name
}

// sanitizeGoVersion guards against version strings go/types rejects
// (empty is allowed and means "latest").
func sanitizeGoVersion(v string) string {
	if v == "" || strings.HasPrefix(v, "go") {
		return v
	}
	return ""
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// Handshake prints the -V=full build-identity line the go command uses
// for build caching: tool name, the literal "version devel" marker, and
// a buildID derived from the executable's own content hash, so editing
// and rebuilding p2pvet invalidates previously cached vet results.
func Handshake(stdout io.Writer, progname string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s version devel comments-go-here buildID=%x\n", progname, h.Sum(nil))
	return nil
}
