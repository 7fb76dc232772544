"""Every output checker accepts a right answer and rejects a corrupted one."""

import copy
import datetime as dt

import pytest

import checks

D = dt.date


# -- reproduce -----------------------------------------------------------------


TRUTH = {1: "a@x.social", 2: "b@y.social", 3: "c@x.social"}


def test_matched_users_right_answer():
    assert checks.check_matched({1: "a@x.social", 2: "b@y.social"}, TRUTH) == []


def test_matched_user_pointing_at_another_account():
    failures = checks.check_matched({1: "a@x.social", 2: "b@z.social"}, TRUTH)
    assert failures and "first account" in failures[0]


def test_matched_user_who_never_migrated():
    failures = checks.check_matched({1: "a@x.social", 9: "q@x.social"}, TRUTH)
    assert any("not a migrant" in f for f in failures)


@pytest.mark.parametrize("matched", [{1: "a@x.social"}, dict(TRUTH)])
def test_recall_outside_the_open_interval(matched):
    # 1/3 is too low; matching every migrant is not believable either
    assert any("recall" in f for f in checks.check_matched(matched, TRUTH))


DAYS = [D(2022, 10, 27), D(2022, 10, 27), D(2022, 10, 28), D(2022, 11, 1)]
F2_ROWS = [("2022-10-27", 2), ("2022-10-28", 1), ("2022-11-01", 1)]


def test_f2_right_answer():
    assert checks.check_f2(F2_ROWS, DAYS) == []


def test_f2_dropped_row():
    assert checks.check_f2(F2_ROWS[:-1], DAYS)


def test_f2_wrong_total():
    rows = [("2022-10-27", 3)] + F2_ROWS[1:]
    failures = checks.check_f2(rows, DAYS)
    assert any("sum to 5" in f for f in failures)


DOMAINS = {1: "x.social", 2: "x.social", 3: "y.social", 4: "z.social"}
JOINS = {1: D(2022, 10, 1), 2: D(2022, 11, 2), 3: D(2022, 11, 3)}  # 4: unknown
F4_ROWS = [("x.social", 1, 1, 2), ("y.social", 0, 1, 1), ("z.social", 0, 1, 1)]


def test_f4_right_answer():
    assert checks.check_f4(F4_ROWS, DOMAINS, JOINS) == []


def test_f4_changed_cell():
    rows = [("x.social", 2, 0, 2)] + F4_ROWS[1:]
    assert checks.check_f4(rows, DOMAINS, JOINS)


def test_f4_dropped_row():
    assert checks.check_f4(F4_ROWS[:2], DOMAINS, JOINS)


def test_figure_texts_changed_cell():
    reference = {"F5": "== F5 ==\ntop 25%  96.00", "report": "r"}
    assert checks.check_texts(reference, dict(reference), "B vs A") == []
    changed = dict(reference, F5="== F5 ==\ntop 25%  96.01")
    assert checks.check_texts(reference, changed, "B vs A") == ["B vs A: F5 differs"]
    missing = {"report": "r"}
    assert checks.check_texts(reference, missing, "B vs A") == ["B vs A: F5 differs"]


# -- serve ---------------------------------------------------------------------


@pytest.fixture
def oracle():
    tweets = [
        (30, 7, "2022-10-28", "bye bye twitter #mastodon", frozenset({"mastodon"}), ()),
        (10, 8, "2022-10-27", "see you on mastodon.social", frozenset(),
         ("mastodon.social",)),
        (20, 7, "2022-11-02", "#Mastodon again", frozenset({"mastodon"}), ()),
    ]
    statuses = [(7, "2022-11-01", "hello #fediverse", frozenset({"fediverse"}))]
    return checks.ServingOracle(
        tweets=tweets,
        statuses=statuses,
        twitter_timelines={7: [("2022-10-28", "a"), ("2022-11-02", "b")]},
        mastodon_timelines={7: [("2022-11-01", "hello #fediverse")]},
        populations={"mastodon.social": 2, "x.y": 1},
        weekly={"x.y": [{"week": "2022-W44", "statuses": 3}]},
        trends={"Mastodon": [["2022-10-27", 100]]},
    )


SEARCH = {"platform": "twitter", "kind": "hashtag", "term": "mastodon",
          "since": None, "until": None, "limit": 50, "offset": 0}


def _search_payload(ids, total=None):
    rows = [{"id": i, "author_id": 7, "day": "", "text": "", "source": "",
             "is_retweet": False} for i in ids]
    return {"endpoint": "search", "params": SEARCH,
            "total": len(ids) if total is None else total, "rows": rows}


def test_search_right_answer(oracle):
    assert checks.check_answer(oracle, "search", SEARCH, _search_payload([20, 30]), "s") == []


def test_search_wrong_total(oracle):
    failures = checks.check_answer(oracle, "search", SEARCH,
                                   _search_payload([20, 30], total=3), "s")
    assert failures and "total" in failures[0]


def test_search_dropped_row(oracle):
    failures = checks.check_answer(oracle, "search", SEARCH,
                                   _search_payload([20], total=2), "s")
    assert failures and "page" in failures[0]


def test_search_window_and_domain(oracle):
    params = dict(SEARCH, kind="domain", term="mastodon.social")
    assert oracle.expect("search", params) == {"total": 1, "ids": [10]}
    params = dict(SEARCH, since="2022-10-28", until="2022-10-31")
    assert oracle.expect("search", params) == {"total": 1, "ids": [30]}


def test_timeline_page_cut(oracle):
    params = {"uid": 7, "platform": "twitter", "since": None, "until": None,
              "limit": 1, "offset": 1}
    payload = {"endpoint": "timeline", "params": params, "total": 2,
               "rows": [{"day": "2022-11-02", "text": "b", "source": "W",
                         "is_retweet": False}]}
    assert checks.check_answer(oracle, "timeline", params, payload, "t") == []
    corrupted = copy.deepcopy(payload)
    corrupted["rows"][0]["text"] = "a"
    assert checks.check_answer(oracle, "timeline", params, corrupted, "t")


def test_instances_and_instance(oracle):
    params = {"limit": 50, "offset": 0}
    payload = {"endpoint": "instances", "params": params, "total": 2,
               "rows": [{"domain": "mastodon.social", "users": 2},
                        {"domain": "x.y", "users": 1}]}
    assert checks.check_answer(oracle, "instances", params, payload, "i") == []
    payload["rows"].reverse()
    assert checks.check_answer(oracle, "instances", params, payload, "i")
    one = {"endpoint": "instance", "domain": "x.y", "users": 1,
           "weekly": [{"week": "2022-W44", "statuses": 3}]}
    assert checks.check_answer(oracle, "instance", {"domain": "x.y"}, one, "i") == []
    one["users"] = 2
    assert checks.check_answer(oracle, "instance", {"domain": "x.y"}, one, "i")


def test_trends(oracle):
    payload = {"endpoint": "trends", "params": {"term": "mastodon"},
               "terms": ["Mastodon"], "series": {"Mastodon": [["2022-10-27", 100]]}}
    assert checks.check_answer(oracle, "trends", {"term": "mastodon"}, payload, "t") == []
    payload["series"]["Mastodon"][0][1] = 99
    assert checks.check_answer(oracle, "trends", {"term": "mastodon"}, payload, "t")


def test_error_payload_is_rejected(oracle):
    error = {"error": "not found", "status": 404}
    failures = checks.check_answer(oracle, "search", SEARCH, error, "s")
    assert failures and "lacks the fields" in failures[0]


# -- counting operations -------------------------------------------------------


def test_tally_counts_every_operation_and_fails_on_any_failed_one():
    tally = checks.Tally()
    tally.figures({"F1": "== F1 ==", "report": "r"}, "round 0")
    tally.responses([200, 200], "hot")
    assert (tally.attempted, tally.failed, tally.failures) == (4, 0, [])
    tally.figures({"F13": checks.RAISED + "AnalysisError: nothing"}, "round 1")
    tally.responses([200, 404], "miss")
    assert (tally.attempted, tally.failed) == (7, 2)
    assert tally.failures == [
        "round 1: F13 raised (FAILED AnalysisError: nothing)",
        "miss: a request answered 404",
    ]


def test_tally_merge_sums_children_and_caps_the_lines():
    parent = checks.Tally()
    child = {"attempted": 40, "failed": 30, "failures": ["x"] * 30}
    parent.merge(child)
    parent.merge(child)
    assert (parent.attempted, parent.failed) == (80, 60)
    assert len(parent.failures) == checks.MAX_FAILURES
