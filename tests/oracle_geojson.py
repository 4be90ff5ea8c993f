"""The dict-and-json.dumps GeoJSON writer, kept as the oracle for
pipeline.export_geojson.

Each feature is built as a dict and the whole document encoded by one
json.dumps call: the package's first construction. export_geojson fills a
text template per feature instead and must write the same bytes.
"""

import json

import numpy as np


def feature(i, site_ids, labels, coords, log_density, scores, flags):
    props = {
        "site_id": site_ids[i],
        "cluster": int(labels[i]),
        "log_density": float(log_density[i]),
        "anomaly_score": None if np.isnan(scores[i]) else float(scores[i]),
        "iforest_flag": bool(flags[i]),
    }
    return {
        "type": "Feature",
        "geometry": {"type": "Point",
                     "coordinates": [float(coords[i][1]), float(coords[i][0])]},
        "properties": props,
    }


def geojson_text(site_ids, labels, coords, log_density, scores, flags) -> str:
    """The FeatureCollection document as export_geojson must write it."""
    doc = {"type": "FeatureCollection",
           "features": [feature(i, site_ids, labels, coords, log_density, scores, flags)
                        for i in range(len(site_ids))]}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)
