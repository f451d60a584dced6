"""The one writer behind every CSV artifact, and the one ``.npz`` reader.

A CSV file is ``# `` comment lines (provenance such as the config hash and
master seed, plus any format metadata), then one header row and the data
rows as ``csv.writer`` renders them.
"""

import csv
import zipfile

import numpy as np


def write_csv(path, header: list[str], rows, comments: list[str] | None = None) -> None:
    """Write ``comments`` as ``# `` lines, then the header and the rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for line in comments or ():
            fh.write(f"# {line}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_npz(path) -> dict[str, np.ndarray]:
    """Every array of an ``.npz`` archive, read at once; any other file is a ValueError."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):  # np.load would offer to unpickle it
            raise ValueError("not an .npz archive")
        fh.seek(0)
        try:
            with np.load(fh) as data:
                return dict(data)
        except zipfile.BadZipFile as exc:  # a damaged archive, such as a bad CRC
            raise ValueError(exc) from exc
