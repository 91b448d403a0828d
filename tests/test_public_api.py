"""The package's public surface: every exported name resolves."""

import smooth_threshold


def test_every_exported_name_resolves():
    # includes the lazily imported cli names, so a stale export fails here
    missing = [name for name in smooth_threshold.__all__
               if not hasattr(smooth_threshold, name)]
    assert missing == []
    assert {"load_csv", "ColumnRoles"} <= set(smooth_threshold.__all__)
