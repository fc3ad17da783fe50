#!/bin/sh
# Fails when docs/API.md or docs/PERFORMANCE.md drifts from the code it
# documents:
#   1. every route registered in internal/serve must have its own
#      "## METHOD /path" section,
#   2. the graph-family table must list exactly the families in the spec
#      registry (one row per family, no extras, none missing), and the
#      variant table likewise exactly the registered variants,
#   3. the docs/PERFORMANCE.md scenario table must list exactly the
#      scenarios cmd/bo3bench registers (bo3bench -list), and
#   4. the docs/API.md bo3store subcommand table must list exactly the
#      subcommands cmd/bo3store registers (bo3store -list),
#   5. the docs/API.md bo3graph subcommand table must list exactly the
#      subcommands cmd/bo3graph registers (bo3graph -list), and
#   6. the first-column names of the docs/API.md GET /v1/stats table must
#      be exactly the json fields of the serve Stats struct (the payload),
#      so new counters cannot ship undocumented and deleted ones cannot
#      linger in the docs,
#   7. the docs/API.md metrics reference table must list exactly the
#      metric families the service registers (go run
#      ./internal/tools/registry metrics), both ways likewise, and
#   8. the DESIGN.md "Registry entries as sweep grids" table must give
#      every sweepable experiment row exactly the grid and round cap the
#      registry publishes (go run ./internal/tools/registry grids), with
#      no row missing and none extra.
# Also gates the spec layer with go vet + gofmt so a drifted or
# unformatted spec/cli package fails the same check.
set -eu
cd "$(dirname "$0")/.."

status=0

# --- 1. Route sections -------------------------------------------------
routes=$(sed -n 's/.*HandleFunc("\([A-Z]* [^"]*\)".*/\1/p' internal/serve/serve.go)
if [ -z "$routes" ]; then
    echo "check-api-docs: no routes found in internal/serve/serve.go (pattern drift?)" >&2
    exit 1
fi
while IFS= read -r route; do
    # Exact heading match: substring search would let "GET /v1/sweeps"
    # ride on the "## GET /v1/sweeps/{id}" heading after its own section
    # is deleted.
    if ! grep -qxF "## $route" docs/API.md; then
        echo "check-api-docs: route \"$route\" is registered in internal/serve/serve.go but has no \"## $route\" section in docs/API.md" >&2
        status=1
    fi
done <<EOF
$routes
EOF

# --- 2. Family table vs the spec registry ------------------------------
# Documented families: the first backticked cell of each row of the table
# headed "| Family | Parameters | Notes |" (and only that table).
doc_families=$(awk '
    /^\| Family \| Parameters \| Notes \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z0-9-]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/API.md | sort)
reg_families=$(go run ./internal/tools/registry families | sort)
if [ -z "$doc_families" ]; then
    echo "check-api-docs: no family table rows found in docs/API.md (pattern drift?)" >&2
    status=1
elif [ "$doc_families" != "$reg_families" ]; then
    echo "check-api-docs: docs/API.md family table disagrees with the spec registry:" >&2
    echo "--- registry (go run ./internal/tools/registry families)" >&2
    echo "$reg_families" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_families" >&2
    status=1
fi

# --- 2b. Variant table vs the spec registry ----------------------------
# Documented variants: the first backticked cell of each row of the table
# headed "| Variant | Parameters | Notes |" (and only that table).
doc_variants=$(awk '
    /^\| Variant \| Parameters \| Notes \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z0-9-]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/API.md | sort)
reg_variants=$(go run ./internal/tools/registry variants | sort)
if [ -z "$doc_variants" ]; then
    echo "check-api-docs: no variant table rows found in docs/API.md (pattern drift?)" >&2
    status=1
elif [ "$doc_variants" != "$reg_variants" ]; then
    echo "check-api-docs: docs/API.md variant table disagrees with the spec registry:" >&2
    echo "--- registry (go run ./internal/tools/registry variants)" >&2
    echo "$reg_variants" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_variants" >&2
    status=1
fi

# --- 3. Bench scenario table vs the bo3bench registry ------------------
# Documented scenarios: the first backticked cell of each row of the
# table headed "| Scenario | What it measures |" in docs/PERFORMANCE.md.
doc_scenarios=$(awk '
    /^\| Scenario \| What it measures \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z0-9\/-]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/PERFORMANCE.md | sort)
reg_scenarios=$(go run ./cmd/bo3bench -list | sort)
if [ -z "$doc_scenarios" ]; then
    echo "check-api-docs: no scenario table rows found in docs/PERFORMANCE.md (pattern drift?)" >&2
    status=1
elif [ "$doc_scenarios" != "$reg_scenarios" ]; then
    echo "check-api-docs: docs/PERFORMANCE.md scenario table disagrees with cmd/bo3bench:" >&2
    echo "--- registry (go run ./cmd/bo3bench -list)" >&2
    echo "$reg_scenarios" >&2
    echo "--- docs/PERFORMANCE.md table" >&2
    echo "$doc_scenarios" >&2
    status=1
fi

# --- 4. bo3store subcommand table vs the bo3store registry -------------
# Documented subcommands: the first backticked cell of each row of the
# table headed "| Subcommand | What it does |" in docs/API.md.
doc_subs=$(awk '
    /^\| Subcommand \| What it does \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z-]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/API.md | sort)
reg_subs=$(go run ./cmd/bo3store -list | sort)
if [ -z "$doc_subs" ]; then
    echo "check-api-docs: no bo3store subcommand table rows found in docs/API.md (pattern drift?)" >&2
    status=1
elif [ "$doc_subs" != "$reg_subs" ]; then
    echo "check-api-docs: docs/API.md bo3store subcommand table disagrees with cmd/bo3store:" >&2
    echo "--- registry (go run ./cmd/bo3store -list)" >&2
    echo "$reg_subs" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_subs" >&2
    status=1
fi

# --- 5. bo3graph subcommand table vs the bo3graph registry -------------
# Documented subcommands: the first backticked cell of each row of the
# table headed "| Subcommand | Purpose |" in docs/API.md (a distinct
# heading from bo3store's table, so the two scrapers never cross-match).
doc_gsubs=$(awk '
    /^\| Subcommand \| Purpose \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z-]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/API.md | sort)
reg_gsubs=$(go run ./cmd/bo3graph -list | sort)
if [ -z "$doc_gsubs" ]; then
    echo "check-api-docs: no bo3graph subcommand table rows found in docs/API.md (pattern drift?)" >&2
    status=1
elif [ "$doc_gsubs" != "$reg_gsubs" ]; then
    echo "check-api-docs: docs/API.md bo3graph subcommand table disagrees with cmd/bo3graph:" >&2
    echo "--- registry (go run ./cmd/bo3graph -list)" >&2
    echo "$reg_gsubs" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_gsubs" >&2
    status=1
fi

# --- 6. Stats fields vs the GET /v1/stats table ------------------------
# Documented fields: every backticked name in the first cell of each row
# of the table in the "## GET /v1/stats" section (a row may name several).
stats_fields=$(awk '
    /^type Stats struct \{/ { in_struct = 1; next }
    in_struct && /^\}/ { exit }
    in_struct && match($0, /json:"[a-z_]+/) { print substr($0, RSTART + 6, RLENGTH - 6) }
' internal/serve/wire.go | sort)
doc_stats=$(awk '
    /^## GET \/v1\/stats$/ { in_section = 1; next }
    in_section && /^## / { exit }
    in_section && /^\| `/ {
        in_table = 1
        split($0, cells, "|")
        first = cells[2]
        while (match(first, /`[a-z_]+`/)) {
            print substr(first, RSTART + 1, RLENGTH - 2)
            first = substr(first, RSTART + RLENGTH)
        }
        next
    }
    in_table && !/^\|/ { exit }
' docs/API.md | sort)
if [ -z "$stats_fields" ] || [ -z "$doc_stats" ]; then
    echo "check-api-docs: no serve.Stats json tags or no GET /v1/stats table rows found (pattern drift?)" >&2
    status=1
elif [ "$doc_stats" != "$stats_fields" ]; then
    echo "check-api-docs: docs/API.md GET /v1/stats table disagrees with the serve.Stats json fields:" >&2
    echo "--- serve.Stats (internal/serve/wire.go)" >&2
    echo "$stats_fields" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_stats" >&2
    status=1
fi

# --- 7. Metric families vs the docs/API.md metrics table ---------------
# Documented metrics: the first backticked cell of each row of the table
# headed "| Metric | Type | Labels | Meaning |".
doc_metrics=$(awk '
    /^\| Metric \| Type \| Labels \| Meaning \|$/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| `/ {
        if (match($0, /`[a-z0-9_]+`/)) print substr($0, RSTART + 1, RLENGTH - 2)
        next
    }
    in_table { exit }
' docs/API.md | sort)
reg_metrics=$(go run ./internal/tools/registry metrics | sort)
if [ -z "$doc_metrics" ] || [ -z "$reg_metrics" ]; then
    echo "check-api-docs: no metrics table rows or no registered metric names found (pattern drift?)" >&2
    status=1
elif [ "$doc_metrics" != "$reg_metrics" ]; then
    echo "check-api-docs: docs/API.md metrics table disagrees with the registered metric families:" >&2
    echo "--- registry (go run ./internal/tools/registry metrics)" >&2
    echo "$reg_metrics" >&2
    echo "--- docs/API.md table" >&2
    echo "$doc_metrics" >&2
    status=1
fi

# --- 8. Sweep-grid table vs the experiment registry --------------------
# Documented grids: in the table headed "| ID | Sweep grid ...", each row
# whose second cell opens with a backticked JSON object, rendered as
# "<id> <json>" like the registry's lines. Library-only rows carry no JSON
# and are skipped.
doc_grids=$(awk '
    /^\| ID \| Sweep grid/ { in_table = 1; next }
    in_table && /^\|-/ { next }
    in_table && /^\| E[0-9]+ +\| `\{/ {
        split($0, cells, "|")
        id = cells[2]
        gsub(/ /, "", id)
        body = $0
        sub(/^[^`]*`/, "", body)
        sub(/`.*$/, "", body)
        print id " " body
        next
    }
    in_table && /^\|/ { next }
    in_table { exit }
' DESIGN.md | sort)
reg_grids=$(go run ./internal/tools/registry grids | sort)
if [ -z "$doc_grids" ]; then
    echo "check-api-docs: no sweep-grid rows found in DESIGN.md (pattern drift?)" >&2
    status=1
elif [ "$doc_grids" != "$reg_grids" ]; then
    echo "check-api-docs: DESIGN.md sweep-grid table disagrees with the experiment registry:" >&2
    echo "--- registry (go run ./internal/tools/registry grids)" >&2
    echo "$reg_grids" >&2
    echo "--- DESIGN.md table" >&2
    echo "$doc_grids" >&2
    status=1
fi

# --- 9. vet + gofmt gate over the spec layer ---------------------------
go vet ./spec/... ./internal/cli/... || status=1
unformatted=$(gofmt -l spec internal/cli)
if [ -n "$unformatted" ]; then
    echo "check-api-docs: gofmt needed on:" >&2
    echo "$unformatted" >&2
    status=1
fi

exit $status
