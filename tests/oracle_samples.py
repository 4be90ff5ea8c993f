"""The samples.csv writer the pipeline ran before ingest handed on the
survey's own text: the fixed header, then one row per site of the parsed
table, its site id quoted as csv.writer quotes it (and also when it holds a
CR), then repr() of each coordinate and concentration.

On a survey whose numbers are all repr() spellings, the ingest stage's
samples.csv must equal what this writes from the table, byte for byte.
"""

import re

from spatialcpf.ingest import ELEMENTS, SampleTable


def _quote(site_id: str) -> str:
    if re.search('[,"\r\n]', site_id):
        return '"' + site_id.replace('"', '""') + '"'
    return site_id


def write(table: SampleTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["site_id", "easting", "northing", *ELEMENTS]) + "\n")
        for site_id, itm, conc in zip(table.site_ids, table.itm.tolist(),
                                      table.concentrations.tolist()):
            fh.write(",".join([_quote(site_id), *map(repr, itm + conc)]) + "\n")
