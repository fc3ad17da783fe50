package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// sample is one series line of a Prometheus text exposition.
type sample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape is one parsed /metrics exposition.
type scrape []sample

// parseExposition parses Prometheus text format 0.0.4: comment and blank
// lines are skipped, every other line is `name{labels} value`. Label
// values are quoted and may contain braces (route patterns such as
// "GET /v1/runs/{id}"), so they are scanned, not split.
func parseExposition(r io.Reader) (scrape, error) {
	var out scrape
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		s, err := parseSample(text)
		if err != nil {
			return nil, fmt.Errorf("exposition line %d: %w", line, err)
		}
		out = append(out, s)
	}
	return out, sc.Err()
}

func parseSample(text string) (sample, error) {
	s := sample{labels: map[string]string{}}
	i := strings.IndexAny(text, "{ ")
	if i <= 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	s.name = text[:i]
	rest := text[i:]
	if rest[0] == '{' {
		rest = rest[1:]
		for {
			rest = strings.TrimLeft(rest, ", ")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, `="`)
			if eq <= 0 {
				return s, fmt.Errorf("malformed labels in %q", text)
			}
			key := rest[:eq]
			rest = rest[eq+2:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					default:
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return s, fmt.Errorf("unterminated label value in %q", text)
			}
			s.labels[key] = val.String()
		}
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return s, fmt.Errorf("no value in %q", text)
	}
	v, err := parseValue(fields[0])
	if err != nil {
		return s, err
	}
	s.value = v
	return s, nil
}

func parseValue(f string) (float64, error) {
	switch f {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(f, 64)
}

// labelFilter selects series by their labels; nil selects all.
type labelFilter func(labels map[string]string) bool

// total sums every series of one metric name that passes keep.
func (sc scrape) total(name string, keep labelFilter) float64 {
	sum := 0.0
	for _, s := range sc {
		if s.name == name && (keep == nil || keep(s.labels)) {
			sum += s.value
		}
	}
	return sum
}

// counterDelta is the growth of a counter family between two scrapes,
// summed over the series keep selects.
func counterDelta(before, after scrape, name string, keep labelFilter) float64 {
	return after.total(name, keep) - before.total(name, keep)
}

// histDelta is the growth of a histogram family's _sum (seconds) and
// _count (observations) between two scrapes, summed over the series keep
// selects.
func histDelta(before, after scrape, family string, keep labelFilter) (sum, count float64) {
	return counterDelta(before, after, family+"_sum", keep), counterDelta(before, after, family+"_count", keep)
}
