import dataclasses

from collabmap import views
from collabmap.report import render_all


def test_members_ascend_and_mean_sums_in_position_order():
    mask = views._mask([70, 0, 9, 8], 71)
    assert mask == (1 << 70) | (1 << 9) | (1 << 8) | 1
    assert views.members(mask) == [0, 8, 9, 70]
    assert views.members(0) == []
    values = [0.1 * i for i in range(71)]
    expected = (values[0] + values[8] + values[9] + values[70]) / 4
    assert views.mean_over(mask, values) == expected


def test_views_cached_per_corpus(corpus40):
    fresh = dataclasses.replace(corpus40)
    italian = views.of(fresh)
    assert views.of(fresh) is italian
    assert views.of(dataclasses.replace(fresh, home_country="DE")) is not italian
    assert views.of(corpus40) is not italian
    assert views.of(fresh) is italian


def test_masks_match_id_sets(corpus40):
    index = views.of(corpus40)
    by_sector = {}
    for pub in corpus40.publications:
        linked = {a.researcher_id for a in pub.authors if a.researcher_id is not None}
        for sector_id in {corpus40.researchers[r].sds_id for r in linked}:
            by_sector.setdefault(sector_id, []).append(pub.pub_id)
    assert set(by_sector) == set(index.by_sds)
    for sector_id, ids in by_sector.items():
        positions = views.members(index.by_sds[sector_id])
        assert [corpus40.publications[i].pub_id for i in positions] == sorted(ids)


def test_render_all_classifies_once(corpus40, monkeypatch):
    calls = []
    original = views.Views.parties.func

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(views.Views.parties, "func", counting)
    fresh = dataclasses.replace(corpus40)
    render_all(fresh, min_collab_pubs=3)
    render_all(fresh, min_collab_pubs=4)
    assert calls == [views.of(fresh)]
