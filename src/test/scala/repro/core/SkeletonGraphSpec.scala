package repro.core

import repro.{Oracle, SparkSpec}
import repro.roadnet.{RoadNetGen, TrafficModel}

/** Skeleton graph construction (Section 3.6) and the Lemma 1 / Theorem 2
  * lower-bound property it must satisfy for KSP-DG to be correct.
  */
class SkeletonGraphSpec extends SparkSpec {

  test("build keeps the minimum across duplicate pairs (MBD)") {
    val sk = SkeletonGraph.build(Seq((1, 5, 4.0), (5, 1, 2.5), (1, 7, 3.0)))
    assert(sk.weightOf(1, 5).contains(2.5))
    assert(sk.weightOf(5, 1).contains(2.5))
    assert(sk.weightOf(1, 7).contains(3.0))
    assert(sk.weightOf(5, 7).isEmpty)
  }

  test("compact ids round-trip to global ids") {
    val sk = SkeletonGraph.build(Seq((10, 20, 1.0), (20, 30, 2.0)))
    Seq(10, 20, 30).foreach { v =>
      assert(sk.globalOf(sk.compactOf(v)) == v)
      assert(sk.containsVertex(v))
    }
    assert(!sk.containsVertex(11))
  }

  test("updateWeights changes existing edges only") {
    val sk = SkeletonGraph.build(Seq((1, 2, 5.0), (2, 3, 6.0)))
    sk.updateWeights(Seq((2, 1, 4.0), (9, 8, 1.0)))
    assert(sk.weightOf(1, 2).contains(4.0))
    assert(sk.weightOf(2, 3).contains(6.0))
  }

  test("Theorem 2: skeleton shortest distance lower-bounds the true shortest") {
    for (seed <- 1 to 6) {
      val g = RoadNetGen.generate(300, seed = seed)
      val dtlp = Dtlp.build(g, z = 25, xi = 3)
      val sk = dtlp.skeleton
      val bs = dtlp.partitioning.boundaryVertices
      assert(bs.length > 4, "need boundary vertices for the property to bite")
      for (i <- 0 until math.min(6, bs.length); j <- (i + 1) until math.min(6, bs.length)) {
        val (s, t) = (bs(i), bs(j))
        (Dijkstra.shortestPath(sk.graph, sk.compactOf(s), sk.compactOf(t)),
         Dijkstra.shortestPath(g, s, t)) match {
          case (Some(skp), Some(gp)) =>
            assert(skp.distance <= gp.distance + 1e-9, s"seed=$seed $s->$t")
          case (None, Some(_)) => fail(s"skeleton disconnected where G is not: $s->$t")
          case _ => // both unreachable: fine
        }
      }
    }
  }

  test("Theorem 2 holds after weight drift") {
    val g = RoadNetGen.generate(300, seed = 17)
    val dtlp = Dtlp.build(g, z = 25, xi = 3)
    (1 to 3).foreach { round =>
      val batch = TrafficModel.snapshot(g.snapshot(), 0.5, 0.5, round)
      dtlp.update(batch)
    }
    val sk = dtlp.skeleton
    val bs = dtlp.partitioning.boundaryVertices
    for (i <- 0 until math.min(5, bs.length); j <- (i + 1) until math.min(5, bs.length)) {
      val (s, t) = (bs(i), bs(j))
      (Dijkstra.shortestPath(sk.graph, sk.compactOf(s), sk.compactOf(t)),
       Dijkstra.shortestPath(g, s, t)) match {
        case (Some(skp), Some(gp)) => assert(skp.distance <= gp.distance + 1e-9, s"$s->$t")
        case (None, Some(_)) => fail(s"skeleton disconnected where G is not: $s->$t")
        case _ =>
      }
    }
  }

  test("augmented view grafts endpoints with their LBD edges") {
    val sk = SkeletonGraph.build(Seq((1, 2, 5.0), (2, 3, 6.0)))
    val (view, viewIdOf, toGlobal) = sk.augmented(Seq(
      100 -> Seq((1, 1.5), (2, 2.5)),
      200 -> Seq((3, 0.5))))
    assert(view.numVertices == sk.numVertices + 2)
    val p = Dijkstra.shortestPath(view, viewIdOf(100), viewIdOf(200)).get
    assert(p.vertices.map(toGlobal) == Vector(100, 2, 3, 200))
    assert(math.abs(p.distance - (2.5 + 6.0 + 0.5)) < 1e-9)
    // the detour through vertex 1 is strictly longer
    assert(1.5 + 5.0 + 6.0 + 0.5 > p.distance)
  }

  test("augmented view supports a direct extra-to-extra edge") {
    val sk = SkeletonGraph.build(Seq((1, 2, 50.0)))
    val (view, viewIdOf, toGlobal) = sk.augmented(Seq(100 -> Seq((200, 3.0)), 200 -> Seq.empty))
    val p = Dijkstra.shortestPath(view, viewIdOf(100), viewIdOf(200)).get
    assert(p.vertices.map(toGlobal) == Vector(100, 200))
    assert(p.distance == 3.0)
  }

  test("augmenting an existing boundary vertex is rejected") {
    val sk = SkeletonGraph.build(Seq((1, 2, 5.0)))
    assertThrows[IllegalArgumentException](sk.augmented(Seq(1 -> Seq((2, 1.0)))))
  }

  test("oracle: skeleton is much smaller than the original graph (SQL)") {
    import spark.implicits._
    val g = RoadNetGen.generate(500, seed = 23)
    val dtlp = Dtlp.build(g, z = 30, xi = 2)
    val sizesDf = Seq((g.numVertices, dtlp.skeleton.numVertices)).toDF("g_vertices", "skeleton_vertices")
    Oracle.assertEquivalent(
      sizesDf.selectExpr("CAST(g_vertices > skeleton_vertices AS BOOLEAN) AS skeleton_smaller"),
      "SELECT CAST(g_vertices AS INT) > CAST(skeleton_vertices AS INT) AS skeleton_smaller FROM sizes",
      "sizes" -> sizesDf)
    assert(dtlp.skeleton.numVertices < g.numVertices / 2)
  }
}
