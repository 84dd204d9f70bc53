"""Output checks for the benchmark workloads.

Every check returns a list of error strings; an empty list means the output
passed.  Limits are those of the package's acceptance tests, or are stated
next to the constant that holds them.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

#: Largest move of a numeric c_pred against the reference (4096-grid) value.
C_PRED_ATOL = 1e-4
#: Acceptance-test limits on the simulation/theory gaps of compare, with the
#: column holding each row's replicate standard error.
GAP_LIMITS = {"C_gap": (0.05, "C_se"), "c_gap": (0.07, "c_se")}
#: Standard errors a row's gap may add to its limit.  The acceptance test
#: pools 50 replicates; a compare process here pools far fewer, so rows with
#: few vertices (high k) are noisier, and the report's own standard errors
#: say by how much.
GAP_SE_ALLOWANCE = 4.0

SPECTRUM_HEADER = ["k", "n_vertices", "tri_sum", "cherry_sum", "c_k",
                   "cum_tri", "cum_cherry", "C_k"]


def _float(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def read_theory_rows(path: str) -> dict[int, tuple]:
    """``k -> (c_pred, C_pred_lo, C_pred_hi)`` from a theory or report CSV."""
    with open(path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    return {int(r["k"]): (_float(r["c_pred"]), _float(r["C_pred_lo"]),
                          _float(r["C_pred_hi"])) for r in rows}


def check_theory_rows(got: dict[int, tuple], ref: dict[int, tuple]) -> list[str]:
    """Rows must match the reference in k and in which c_pred are numeric.

    A numeric c_pred may move by at most ``C_PRED_ATOL``.  Each numeric row's
    C_pred interval, widened by the reference interval's half-width, must
    contain the reference midpoint: a coarser grid may widen the interval,
    but not move it off the reference value.
    """
    errors = []
    if sorted(got) != sorted(ref):
        errors.append(f"degrees {sorted(got)} differ from reference {sorted(ref)}")
    for k in sorted(set(got) & set(ref)):
        c, lo, hi = got[k]
        rc, rlo, rhi = ref[k]
        if (c is None) != (rc is None):
            errors.append(f"k={k}: c_pred {c!r}, reference {rc!r}")
            continue
        if c is None:
            continue
        if not abs(c - rc) <= C_PRED_ATOL:
            errors.append(f"k={k}: c_pred {c!r} moved from reference {rc!r}")
        if lo is None or hi is None:
            errors.append(f"k={k}: numeric row without a C_pred interval")
            continue
        mid, half = 0.5 * (rlo + rhi), 0.5 * (rhi - rlo)
        if not (lo - half <= mid <= hi + half):
            errors.append(f"k={k}: C_pred [{lo!r}, {hi!r}] misses reference "
                          f"midpoint {mid!r} (half-width {half!r})")
    return errors


def check_theory(path: str, ref: dict[int, tuple]) -> list[str]:
    return check_theory_rows(read_theory_rows(path), ref)


def check_compare(out_dir: str, ref: dict[int, tuple]) -> tuple[list[str], str]:
    """Errors plus the sha256 of report.csv + report.json."""
    csv_path = os.path.join(out_dir, "report.csv")
    json_path = os.path.join(out_dir, "report.json")
    errors = check_theory(csv_path, ref)
    with open(json_path, "r", encoding="utf-8") as f:
        report = json.load(f)
    if report["replicates_failed"] != 0:
        errors.append(f"{report['replicates_failed']} replicate(s) aborted")
    with open(csv_path, "r", encoding="utf-8", newline="") as f:
        rows = list(csv.DictReader(f))
    for col, (limit, se_col) in GAP_LIMITS.items():
        if not any(r[col] for r in rows):
            errors.append(f"no {col} values")
        for r in rows:
            if r[col] == "":
                continue
            allowed = limit + GAP_SE_ALLOWANCE * float(r[se_col] or 0.0)
            if not float(r[col]) <= allowed:
                errors.append(f"k={r['k']}: {col} = {r[col]} exceeds {limit} + "
                              f"{GAP_SE_ALLOWANCE:g} * {se_col} = {allowed!r}")
    digest = hashlib.sha256()
    for path in (csv_path, json_path):
        with open(path, "rb") as f:
            digest.update(f.read())
    return errors, digest.hexdigest()


def check_spectrum(path: str, oracle: dict) -> list[str]:
    """Every integer of a ``stats`` CSV must equal the oracle's, and the two
    ratio columns must be the ratios of those integers."""
    nv, tri, ch = oracle["n_vertices"], oracle["tri_sum"], oracle["cherry_sum"]
    cum_tri = tri[::-1].cumsum()[::-1]
    cum_ch = ch[::-1].cumsum()[::-1]
    want = [k for k in range(nv.size) if cum_ch[k] > 0]
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        rows = list(reader)
    if header != SPECTRUM_HEADER:
        return [f"header {header!r}"]
    if [r[0] for r in rows] != [str(k) for k in want]:
        return [f"rows for degrees {[r[0] for r in rows][:8]}..., "
                f"expected {want[:8]}..."]
    errors = []
    for r in rows:
        k = int(r[0])
        expect = {"n_vertices": nv[k], "tri_sum": tri[k], "cherry_sum": ch[k],
                  "cum_tri": cum_tri[k], "cum_cherry": cum_ch[k]}
        for name, value in expect.items():
            cell = r[SPECTRUM_HEADER.index(name)]
            if cell != str(int(value)):
                errors.append(f"k={k}: {name} {cell}, oracle {int(value)}")
        for name, num, den in (("c_k", tri[k], ch[k]), ("C_k", cum_tri[k], cum_ch[k])):
            cell = r[SPECTRUM_HEADER.index(name)]
            if den == 0:
                ok = cell == ""
            else:
                ok = cell != "" and math.isclose(float(cell), int(num) / int(den),
                                                 rel_tol=1e-12, abs_tol=0.0)
            if not ok:
                errors.append(f"k={k}: {name} {cell!r}, oracle {int(num)}/{int(den)}")
    return errors
