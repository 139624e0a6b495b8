package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per series,
// histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	for i := range snap.Metrics {
		ms := &snap.Metrics[i]
		if ms.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", ms.Name, escapeHelp(ms.Help)); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", ms.Name, ms.Kind); err != nil {
			return err
		}
		for _, si := range sortedSeries(ms) {
			se := &ms.Series[si]
			switch ms.Kind {
			case KindCounter, KindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					ms.Name, labelBlock(se.Labels, "", ""), formatFloat(se.Value)); err != nil {
					return err
				}
			case KindHistogram:
				for _, b := range se.Buckets {
					le := "+Inf"
					if !isInf(b.UpperBound) {
						le = formatFloat(b.UpperBound)
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						ms.Name, labelBlock(se.Labels, "le", le), b.Count); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", ms.Name, labelBlock(se.Labels, "", ""), se.Sum); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n", ms.Name, labelBlock(se.Labels, "", ""), se.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func isInf(f float64) bool { return f > 1e308 }

func formatFloat(f float64) string {
	if f == float64(int64(f)) {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// labelBlock renders {k="v",...}, appending the extra pair when extraKey
// is non-empty, or "" when there are no labels at all.
func labelBlock(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WriteJSON renders the registry as an expvar-style JSON object: one key
// per series ("name" or "name{label=value,...}") mapping to its value —
// counters and gauges as numbers, histograms as {count, sum} objects.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	vars := make(map[string]any)
	var keys []string
	for i := range snap.Metrics {
		ms := &snap.Metrics[i]
		for _, si := range sortedSeries(ms) {
			se := &ms.Series[si]
			key := ms.Name
			if len(se.Labels) > 0 {
				parts := make([]string, len(se.Labels))
				for j, l := range se.Labels {
					parts[j] = l.Key + "=" + l.Value
				}
				key += "{" + strings.Join(parts, ",") + "}"
			}
			switch ms.Kind {
			case KindHistogram:
				vars[key] = map[string]uint64{"count": se.Count, "sum": se.Sum}
			default:
				vars[key] = se.Value
			}
			keys = append(keys, key)
		}
	}
	// Deterministic output: marshal an ordered object by hand.
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(",\n")
		}
		kj, err := json.Marshal(k)
		if err != nil {
			return err
		}
		vj, err := json.Marshal(vars[k])
		if err != nil {
			return err
		}
		b.Write(kj)
		b.WriteString(": ")
		b.Write(vj)
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry over HTTP: Prometheus text format at
// /metrics, expvar-style JSON at /debug/vars, and a plain index anywhere
// else. This is what the -metrics-addr flags of rapidrun, rapidserve and
// rapidgw mount for scraping long runs.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = r.WriteJSON(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprintln(w, "telemetry endpoints: /metrics (Prometheus), /debug/vars (JSON)")
	})
	return mux
}
