package repro.core

import repro.SparkSpec
import repro.roadnet.TrafficModel

/** Level-Dijkstra, unit-weight bound table, and LBD correctness (Sections
  * 3.4–3.5 / Theorem 1 / DESIGN.md §3).
  */
class BoundsSpec extends SparkSpec {

  test("level-Dijkstra levels match the walk-level DP") {
    for (seed <- 1 to 10) {
      val g = TestGraphs.randomConnected(10, 8, seed, maxW = 4)
      val dp = TestGraphs.walkLevelDp(g, 0, maxPhi = 40)
      val sweep = LevelDijkstra.sweep(g, 0, xi = 3)
      for (v <- 0 until g.numVertices) {
        val expect = (0 to 40).filter(phi => dp(v)(phi).isFinite).take(3)
          .map(phi => (phi, dp(v)(phi)))
        val got = sweep.levelsOf(v).map(l => (l.phi, l.dist))
        assert(got == expect, s"seed=$seed v=$v")
      }
    }
  }

  test("level witness walks have the claimed phi and distance") {
    val g = TestGraphs.randomConnected(12, 9, 3, maxW = 5)
    val sweep = LevelDijkstra.sweep(g, 0, xi = 4)
    for (v <- 1 until g.numVertices; l <- sweep.levelsOf(v)) {
      val (vs, es) = sweep.walkOf(l)
      assert(vs.head == 0 && vs.last == v)
      assert(es.map(g.vfrags).sum == l.phi)
      assert(math.abs(es.map(g.weights).sum - l.dist) < 1e-9)
      // consecutive vertices really joined by the claimed edges
      es.indices.foreach { i =>
        val e = g.edges(es(i))
        assert(Set(e.u, e.v) == Set(vs(i), vs(i + 1)))
      }
    }
  }

  test("first level at any vertex is the vfrag-shortest walk") {
    val g = TestGraphs.randomConnected(15, 10, 7, maxW = 4)
    val sweep = LevelDijkstra.sweep(g, 0, xi = 1)
    val frag = Dijkstra.run(g, 0, weightOf = e => g.vfrags(e).toDouble)
    for (v <- 1 until g.numVertices)
      assert(sweep.levelsOf(v).head.phi == frag.dist(v).toInt)
  }

  test("unit-weight table bd equals naive smallest-unit sum") {
    for (seed <- 1 to 8) {
      val g = TestGraphs.randomConnected(8, 6, seed, maxW = 6)
      // drift some weights so units differ from 1
      TrafficModel.evolve(g, alpha = 0.5, tau = 0.5, rounds = 2, seed = seed)
      val table = UnitWeightTable(g)
      val naive = (0 until g.numEdges)
        .flatMap(e => Seq.fill(g.vfrags(e))(g.unitWeight(e))).sorted
      for (m <- 0 to naive.size) {
        val expect = naive.take(m).sum
        assert(math.abs(table.bd(m) - expect) < 1e-9, s"seed=$seed m=$m")
      }
      assert(table.bd(naive.size + 1).isInfinity)
      assert(table.totalVfrags == naive.size)
    }
  }

  test("bd is monotone in m") {
    val g = TestGraphs.randomConnected(10, 8, 4)
    val table = UnitWeightTable(g)
    val vals = (0 to table.totalVfrags.toInt).map(table.bd)
    assert(vals.sliding(2).forall(w => w.size < 2 || w(0) <= w(1) + 1e-12))
  }

  test("initially all unit weights are 1, so bd(m) == m") {
    val g = TestGraphs.randomConnected(10, 5, 2, maxW = 9)
    val table = UnitWeightTable(g)
    for (m <- 1 to 10) assert(math.abs(table.bd(m) - m.toDouble) < 1e-9)
  }

  private def walkPairBounds(g: WeightedGraph, sweep: LevelDijkstra.Sweep, v: Int): Option[PairBounds] = {
    val levels = sweep.levelsOf(v)
    if (levels.isEmpty) None
    else {
      val paths = levels.map { l =>
        val (vs, es) = sweep.walkOf(l)
        new BoundingPath(v.toLong, 0, 0, v, l.phi, vs, es, l.dist)
      }.toVector
      Some(new PairBounds(0, v, paths, levels.map(_.phi).max + 1L))
    }
  }

  test("PairBounds lbd is a true lower bound at construction (fresh minima)") {
    for (seed <- 1 to 15) {
      val g = TestGraphs.randomConnected(10, 8, seed)
      val table = UnitWeightTable(g)
      val sweep = LevelDijkstra.sweep(g, 0, xi = 3)
      for (v <- 1 until g.numVertices) {
        walkPairBounds(g, sweep, v).foreach { pb =>
          val trueShortest = Dijkstra.shortestPath(g, 0, v).get.distance
          assert(pb.lbd(LbdMode.Faithful, table) <= trueShortest + 1e-9, s"seed=$seed v=$v")
        }
      }
    }
  }

  test("levels are stable under weight drift (structure fixed)") {
    val g = TestGraphs.randomConnected(12, 9, 5)
    val before = LevelDijkstra.sweep(g, 2, xi = 3)
    TrafficModel.evolve(g, 0.7, 0.7, rounds = 2)
    val after = LevelDijkstra.sweep(g, 2, xi = 3)
    for (v <- 0 until g.numVertices)
      assert(before.levelsOf(v).map(_.phi) == after.levelsOf(v).map(_.phi))
  }
}
