"""collabmap: university-industry collaboration mapping from co-authorship data."""
