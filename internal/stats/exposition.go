package stats

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Family describes one metric family of a Prometheus text exposition.
type Family struct {
	Name, Kind, Help string
	// Labeled marks a family whose samples all carry labels: untouched, it
	// exposes its HELP/TYPE lines and no samples. An untouched plain
	// family exposes an explicit zero instead, so scrapes see the full
	// instrument set from the first sample — unless Optional, which omits
	// the family until its first sample (a gauge that only exists in some
	// configurations).
	Labeled  bool
	Optional bool
}

// WriteExposition writes snap in the Prometheus text exposition format
// (v0.0.4), family by family in the order given. A family's samples are
// the snapshot keys equal to its name or carrying its name plus a label
// set, in sorted order.
func WriteExposition(w io.Writer, fams []Family, snap map[string]float64) {
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, fam := range fams {
		var members []string
		for _, k := range keys {
			if k == fam.Name || strings.HasPrefix(k, fam.Name+"{") {
				members = append(members, k)
			}
		}
		if len(members) == 0 && fam.Optional {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", fam.Name, fam.Help, fam.Name, fam.Kind)
		if len(members) == 0 && !fam.Labeled {
			fmt.Fprintf(w, "%s 0\n", fam.Name)
		}
		for _, k := range members {
			fmt.Fprintf(w, "%s %s\n", k, FormatValue(snap[k]))
		}
	}
}

// FormatValue renders a sample value the way Prometheus expects: integers
// without an exponent, everything else in Go's shortest form.
func FormatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
