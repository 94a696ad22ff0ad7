package repro.core

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.SparkSpec

/** Randomized property checks over generated graphs (ScalaCheck generators,
  * driven deterministically so failures are reproducible).
  */
class PropertySpec extends SparkSpec {

  /** Evaluate `f` on `n` deterministic samples of `gen`. */
  private def forAll[T](gen: Gen[T], n: Int = 12)(f: T => Unit): Unit =
    (1 to n).foreach { i =>
      f(gen.pureApply(Gen.Parameters.default, Seed(i.toLong)))
    }

  private def forAll[A, B](ga: Gen[A], gb: Gen[B])(f: (A, B) => Unit): Unit =
    forAll(Gen.zip(ga, gb))(t => f(t._1, t._2))

  private def forAll[A, B, C](ga: Gen[A], gb: Gen[B], gc: Gen[C])(f: (A, B, C) => Unit): Unit =
    forAll(Gen.zip(ga, gb, gc))(t => f(t._1, t._2, t._3))

  private val graphGen: Gen[WeightedGraph] = for {
    n <- Gen.choose(6, 14)
    extra <- Gen.choose(2, 10)
    seed <- Gen.choose(0L, 100000L)
  } yield TestGraphs.randomConnected(n, extra, seed)

  test("property: Yen distances equal brute-force distances") {
    forAll(graphGen) { g =>
      val t = g.numVertices - 1
      assert(TestGraphs.distances(Yen.ksp(g, 0, t, 4)) ==
        TestGraphs.distances(TestGraphs.bruteKsp(g, 0, t, 4)))
    }
  }

  test("property: Dijkstra distance is minimal over all simple paths") {
    forAll(graphGen) { g =>
      val t = g.numVertices - 1
      val all = TestGraphs.allSimplePaths(g, 0, t)
      val d = Dijkstra.shortestPath(g, 0, t).map(_.distance)
      assert(d.contains(all.map(_.distance).min))
    }
  }

  test("property: partition invariants hold for arbitrary z") {
    forAll(graphGen, Gen.choose(2, 8)) { (g, z) =>
      val p = Partitioner.partition(g, z)
      assert(p.subgraphs.flatMap(_.vertexIds).toSet == (0 until g.numVertices).toSet)
      val owned = p.subgraphs.flatMap(_.edgeIds)
      assert(owned.sorted == (0 until g.numEdges))
      assert(p.subgraphs.forall(_.numVertices <= z))
    }
  }

  test("property: skeleton shortest is a lower bound (Theorem 2)") {
    forAll(graphGen, Gen.choose(3, 8)) { (g, z) =>
      val dtlp = Dtlp.build(g, z, xi = 2)
      val sk = dtlp.skeleton
      val bs = dtlp.partitioning.boundaryVertices
      if (bs.length >= 2) {
        val (s, t) = (bs.head, bs.last)
        (Dijkstra.shortestPath(sk.graph, sk.compactOf(s), sk.compactOf(t)),
         Dijkstra.shortestPath(g, s, t)) match {
          case (Some(a), Some(b)) => assert(a.distance <= b.distance + 1e-9)
          case (None, Some(_)) => fail("skeleton disconnected where G is not")
          case _ =>
        }
      }
    }
  }

  test("property: KSP-DG equals Yen on arbitrary graphs and k") {
    forAll(graphGen, Gen.choose(1, 5), Gen.choose(3, 9)) { (g, k, z) =>
      val dtlp = Dtlp.build(g, z, xi = 2)
      val engine = KspDg.local(dtlp)
      val t = g.numVertices - 1
      val got = TestGraphs.distances(engine.query(KspQuery(0, 0, t, k)).paths)
      assert(got == TestGraphs.distances(Yen.ksp(g, 0, t, k)))
    }
  }

  test("property: LBD of any indexed pair lower-bounds the interior-free shortest") {
    forAll(graphGen, Gen.choose(3, 8)) { (g, z) =>
      val dtlp = Dtlp.build(g, z, xi = 3)
      dtlp.subIndexes.foreach { idx =>
        val banned = idx.sg.boundaryIds.map(idx.sg.localOf).toSet
        idx.pairs.foreach { case ((a, b), pb) =>
          val sp = Dijkstra.shortestPath(idx.sg.local, idx.sg.localOf(a), idx.sg.localOf(b),
            bannedVertex = banned.contains).get
          assert(pb.lbd(LbdMode.Faithful, idx.unitTable) <= sp.distance + 1e-9)
        }
      }
    }
  }

  test("property: level-Dijkstra first level equals vfrag Dijkstra") {
    forAll(graphGen) { g =>
      val sweep = LevelDijkstra.sweep(g, 0, xi = 2)
      val frag = Dijkstra.run(g, 0, weightOf = e => g.vfrags(e).toDouble)
      (1 until g.numVertices).foreach { v =>
        assert(sweep.levelsOf(v).head.phi.toDouble == frag.dist(v))
      }
    }
  }

  test("property: joined best-first segments never miss a shorter simple combo") {
    // joinSegments is exercised through full KSP-DG equality above; here we
    // sanity-check the monotonicity of emitted candidates directly.
    forAll(graphGen, Gen.choose(1, 4)) { (g, k) =>
      val dtlp = Dtlp.build(g, 4, xi = 2)
      val engine = KspDg.local(dtlp)
      val res = engine.query(KspQuery(0, 0, g.numVertices - 1, k))
      val ds = res.paths.map(_.distance)
      assert(ds == ds.sorted)
      assert(res.paths.forall(_.isSimple))
    }
  }
}
