package repro.core

import repro.SparkSpec
import repro.roadnet.{RoadNetGen, TrafficModel}

/** EP-Index maintenance (Algorithm 2): incremental distance bumps must match
  * full recomputation of walk distances at all times.
  */
class EpIndexSpec extends SparkSpec {

  private def indexFor(seed: Int): (WeightedGraph, SubgraphDtlp) = {
    val g = RoadNetGen.generate(160, seed = seed)
    val part = Partitioner.partition(g, 25)
    // pick a subgraph with some boundary pairs
    val sg = part.subgraphs.maxBy(_.boundaryIds.length)
    (g, new SubgraphDtlp(sg, xi = 3))
  }

  test("freshly built index has distances equal to walk reprices") {
    val (_, idx) = indexFor(1)
    idx.epPaths.foreach { bp =>
      val expect = bp.localEdges.map(idx.sg.local.weights).sum
      assert(math.abs(bp.distance - expect) < 1e-9)
    }
    assert(idx.pairs.nonEmpty)
  }

  test("pathsThrough lists exactly the walks containing the edge") {
    val (_, idx) = indexFor(2)
    val all = idx.epPaths
    (0 until idx.sg.local.numEdges).foreach { le =>
      val expect = all.filter(_.localEdges.contains(le)).map(_.pathId).toSet
      val got = idx.epIndex.pathsThrough(le).map(_._1.pathId).toSet
      assert(got == expect, s"edge $le")
    }
  }

  test("multiplicity equals the number of traversals of the edge") {
    val (_, idx) = indexFor(3)
    (0 until idx.sg.local.numEdges).foreach { le =>
      idx.epIndex.pathsThrough(le).foreach { case (bp, mult) =>
        assert(mult == bp.localEdges.count(_ == le))
      }
    }
  }

  test("applyDelta keeps every stored distance equal to a reprice") {
    val (g, idx) = indexFor(4)
    for (round <- 1 to 5) {
      val batch = TrafficModel.snapshot(g, alpha = 0.5, tau = 0.4, round = round)
      g.applyUpdates(batch)
      idx.update(batch, LbdMode.Faithful)
      idx.epPaths.foreach { bp =>
        val expect = bp.localEdges.map(idx.sg.local.weights).sum
        assert(math.abs(bp.distance - expect) < 1e-9, s"round=$round path=${bp.pathId}")
      }
    }
  }

  test("applyDelta bumps exactly the paths through the edge, by multiplicity") {
    val (_, idx) = indexFor(5)
    val le = idx.epIndex.entries.keys.head
    val before = idx.epPaths.map(bp => bp.pathId -> bp.distance).toMap
    val mult = idx.epIndex.pathsThrough(le).map { case (bp, m) => bp.pathId -> m }.toMap
    idx.epIndex.applyDelta(le, 1.5)
    idx.epPaths.foreach { bp =>
      assert(bp.distance == before(bp.pathId) + mult.getOrElse(bp.pathId, 0) * 1.5, s"path=${bp.pathId}")
    }
  }

  test("storage elements match the handbook formula shape") {
    val (_, idx) = indexFor(6)
    val total = idx.epIndex.storageElements
    val sumLens = idx.epPaths.map(_.localEdges.distinct.size.toLong).sum
    assert(total == sumLens) // one element per (edge, path) incidence
  }

  test("updates to edges outside the subgraph are ignored") {
    val (g, idx) = indexFor(7)
    val foreign = (0 until g.numEdges).find(e => !idx.sg.localEdgeOfGlobal.contains(e)).get
    val before = idx.epPaths.map(_.distance).toSeq
    val lbdsBefore = idx.lbds
    val res = idx.update(Seq(WeightUpdate(foreign, 999.0, 999.0 - g.weights(foreign))), LbdMode.Faithful)
    assert(res.epBumps == 0 && res.exactRefreshDijkstras == 0)
    assert(res.lbds.sameElements(lbdsBefore))
    val after = idx.epPaths.map(_.distance).toSeq
    assert(before == after)
  }
}
