from arquiver.graph import closure, components


def test_closure_follows_steps_only_forward():
    step = {"a": ["b"], "b": ["c"], "c": [], "d": ["a"]}
    assert closure(["a"], step) == {"a", "b", "c"}
    assert closure([], step) == set()


def test_components_keep_vertex_order():
    vertices = ["e", "c", "a", "d", "b"]
    edges = [("b", "e"), ("d", "c"), ("a", "c")]
    assert components(vertices, edges) == [["e", "b"], ["c", "a", "d"]]
    assert components(vertices, []) == [[v] for v in vertices]
