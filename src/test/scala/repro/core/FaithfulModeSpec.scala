package repro.core

import repro.SparkSpec
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Behaviour of the paper-faithful maintenance mode (DESIGN.md §3): exact at
  * construction, cheap under drift, and still producing ground-truth answers
  * after realistic traffic evolution.
  */
class FaithfulModeSpec extends SparkSpec {

  test("at construction: faithful is exact") {
    val g = RoadNetGen.generate(250, seed = 1)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    dtlp.subIndexes.foreach { idx =>
      val banned = idx.sg.boundaryIds.map(idx.sg.localOf).toSet
      idx.pairs.foreach { case ((a, b), pb) =>
        val f = pb.lbd(LbdMode.Faithful, idx.unitTable)
        val exact = Dijkstra.shortestPath(idx.sg.local, idx.sg.localOf(a), idx.sg.localOf(b),
          bannedVertex = banned.contains).get.distance
        // Integral initial weights → distance == vfrag count → faithful exact.
        assert(math.abs(f - exact) < 1e-9, s"pair=($a,$b)")
      }
    }
  }

  test("faithful skeleton weights stay finite and positive under drift") {
    val g = RoadNetGen.generate(250, seed = 2)
    val dtlp = Dtlp.build(g, z = 25, xi = 3, LbdMode.Faithful)
    (1 to 5).foreach(r => dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.4, 0.3, r)))
    val sk = dtlp.skeleton
    (0 until sk.numEdges).foreach { e =>
      assert(sk.graph.weights(e) > 0 && sk.graph.weights(e).isFinite)
    }
  }

  test("faithful-mode KSP-DG matches ground truth under paper-default traffic (pinned seeds)") {
    // α=0.35, τ=0.30 — the paper's defaults.
    for (seed <- 1 to 3) {
      val g = RoadNetGen.generate(220, seed = 200 + seed)
      val dtlp = Dtlp.build(g, z = 25, xi = 3, LbdMode.Faithful)
      val engine = KspDg.local(dtlp)
      for (round <- 1 to 2) {
        val batch = TrafficModel.snapshot(g.snapshot(), 0.35, 0.30, round, seed = seed)
        dtlp.update(batch)
        engine.invalidateCache()
        val (s, t) = (11, g.numVertices - 13)
        val got = TestGraphs.distances(engine.query(KspQuery(0, s, t, 2)).paths)
        val expect = TestGraphs.distances(Yen.ksp(g, s, t, 2))
        assert(got == expect, s"seed=$seed round=$round")
      }
    }
  }

  test("incremental update is far cheaper than index reconstruction") {
    // The paper's maintenance claim: bounding paths never need recomputing,
    // so an update batch costs a fraction of rebuilding the level-1 index
    // (which is what CANDS-style exact indexes effectively must do).
    def run(): (Long, Long) = {
      val gg = RoadNetGen.generate(600, seed = 3)
      val dtlp = Dtlp.build(gg, z = 50, xi = 4, LbdMode.Faithful)
      val batches = (1 to 5).map(r => TrafficModel.snapshot(gg.snapshot(), 0.5, 0.4, r))
      val t0 = System.nanoTime()
      batches.foreach(dtlp.update)
      val updateNs = System.nanoTime() - t0
      val t1 = System.nanoTime()
      Dtlp.build(gg, z = 50, xi = 4, LbdMode.Faithful)
      val rebuildNs = System.nanoTime() - t1
      (updateNs / 5, rebuildNs)
    }
    run() // warm up JIT
    val (updateNs, rebuildNs) = run()
    assert(updateNs < rebuildNs / 2, s"update=$updateNs rebuild=$rebuildNs")
  }

  test("faithful LBD never exceeds the stored-walk minimum distance") {
    val g = RoadNetGen.generate(250, seed = 4)
    val dtlp = Dtlp.build(g, z = 25, xi = 3, LbdMode.Faithful)
    (1 to 3).foreach(r => dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.5, 0.5, r)))
    dtlp.subIndexes.foreach { idx =>
      idx.pairs.values.foreach { pb =>
        val dU = pb.paths.map(_.distance).min
        assert(pb.lbd(LbdMode.Faithful, idx.unitTable) <= dU + 1e-9)
      }
    }
  }
}
