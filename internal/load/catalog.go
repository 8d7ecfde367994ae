package load

import (
	"fmt"
	"strings"

	sieve "github.com/gpusampling/sieve"
)

// Profile is one catalog entry: a Table I workload at a scale factor. Each
// (workload, scale) pair hashes to a distinct plan on the server, so the
// catalog size relative to the server's cache capacity decides whether a
// run's working set fits in cache.
type Profile struct {
	Workload string  `json:"workload"`
	Scale    float64 `json:"scale"`
	// CSV is the profile rendered in the WriteProfileCSV interchange format,
	// for the sample-csv scenario. Rendered once at catalog build, not per
	// request.
	CSV string `json:"-"`
}

// DefaultProfileNames are the catalog workloads the harness draws from by
// default: the cheapest Table I entries by invocation count, so server-side
// generation cost stays small and the harness measures service overheads
// (routing, caching, coalescing) rather than raw solver time.
var DefaultProfileNames = []string{
	"dwt2d", "bfs_ny", "heartwall", "lud", "nvjpeg", "random", "huffman", "mergesort",
}

// DefaultScales are the scale factors crossed with the profile names.
var DefaultScales = []float64{0.25, 0.5, 1.0}

// BuildCatalog crosses workload names with scale factors into the profile
// catalog, validating every name against the Table I workloads and rendering
// each entry's profile CSV when withCSV is set (required by the sample-csv
// scenario; skippable otherwise to save startup time). Order is
// names-major, so under zipfian popularity the first name's scales form the
// hot set.
func BuildCatalog(names []string, scales []float64, withCSV bool) ([]Profile, error) {
	if len(names) == 0 {
		names = DefaultProfileNames
	}
	if len(scales) == 0 {
		scales = DefaultScales
	}
	catalog := make([]Profile, 0, len(names)*len(scales))
	for _, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := sieve.WorkloadByName(name); err != nil {
			return nil, fmt.Errorf("load: catalog: %w", err)
		}
		for _, scale := range scales {
			if scale <= 0 || scale > 1 {
				return nil, fmt.Errorf("load: catalog: scale %g outside (0, 1]", scale)
			}
			p := Profile{Workload: name, Scale: scale}
			if withCSV {
				csv, err := renderCSV(name, scale)
				if err != nil {
					return nil, fmt.Errorf("load: catalog: render %s@%g: %w", name, scale, err)
				}
				p.CSV = csv
			}
			catalog = append(catalog, p)
		}
	}
	if len(catalog) == 0 {
		return nil, fmt.Errorf("load: empty catalog")
	}
	return catalog, nil
}

// renderCSV generates the workload and profiles it on the default hardware
// model, producing the same rows the server would generate for the
// equivalent {workload, scale} request.
func renderCSV(name string, scale float64) (string, error) {
	w, err := sieve.GenerateWorkload(name, scale)
	if err != nil {
		return "", err
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		return "", err
	}
	p, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	if err := sieve.WriteProfileCSV(p, &sb); err != nil {
		return "", err
	}
	return sb.String(), nil
}
