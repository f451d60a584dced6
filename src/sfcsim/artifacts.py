"""The one writer behind every CSV artifact.

A file is ``# `` comment lines (provenance such as the config hash and
master seed, plus any format metadata), then one header row and the data
rows as ``csv.writer`` renders them.
"""

import csv


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write ``comments`` as ``# `` lines, then the header and the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments or ():
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
