package repro.core

import scala.collection.mutable
import scala.util.Random

import repro.SparkSpec
import repro.roadnet.{RoadNetGen, TrafficModel}

/** The production k-shortest-path kernel against the frozen
  * [[ReferenceYen]]: heap order, Dijkstra trees, Yen's path sequence, the
  * stored DTLP index and the segment join must agree exactly — the same
  * vertex and edge sequences and the same distance bits — on graphs with
  * many ties (grids, integer vfrag weights) as well as real weights.
  */
class KernelDifferentialSpec extends SparkSpec {

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def assertSamePaths(got: Seq[Path], want: Seq[Path], tag: String): Unit = {
    assert(got.map(_.vertices) == want.map(_.vertices), tag)
    assert(got.map(_.edgeIds) == want.map(_.edgeIds), tag)
    assert(got.map(p => bits(p.distance)) == want.map(p => bits(p.distance)), tag)
  }

  /** The same graph seen only through [[GraphOps]] (as the augmented
    * skeleton view is), so Dijkstra takes its generic neighbour loop.
    */
  private def opaque(g: WeightedGraph): GraphOps = new GraphOps {
    def numVertices: Int = g.numVertices
    def foreachNeighbor(v: Int)(f: (Int, Int) => Unit): Unit = g.foreachNeighbor(v)(f)
    def edgeWeight(e: Int): Double = g.edgeWeight(e)
  }

  private val randomGraphs: Seq[(String, WeightedGraph)] =
    (1 to 8).map(seed => s"random seed=$seed" -> TestGraphs.randomConnected(40, 45, seed, maxW = 6)) ++
    (1 to 4).map(seed => s"grid seed=$seed" -> TestGraphs.grid(6, 5, seed, maxW = 3)) ++
    Seq("roadnet" -> RoadNetGen.generate(300, seed = 17))

  test("the primitive heap pops in mutable.PriorityQueue's order, ties included") {
    val rnd = new Random(5)
    for (round <- 1 to 50) {
      val heap = new MinHeap
      val pq = mutable.PriorityQueue.empty[(Double, Int)](Ordering.by[(Double, Int), Double](_._1).reverse)
      var next = 0
      for (_ <- 1 to 400) {
        if (pq.isEmpty || rnd.nextInt(3) > 0) {
          val key = rnd.nextInt(6).toDouble // few distinct keys: many ties
          heap.push(key, next); pq.enqueue((key, next)); next += 1
        } else assert(heap.pop() == pq.dequeue()._2, s"round=$round")
      }
      while (pq.nonEmpty) assert(heap.pop() == pq.dequeue()._2, s"round=$round drain")
      assert(heap.isEmpty)
    }
  }

  private def assertSameTree(a: Dijkstra.Result, b: Dijkstra.Result, t: Int, at: String): Unit = {
    assert(a.dist.map(bits).toSeq == b.dist.map(bits).toSeq, at)
    assert(a.parentVertex.toSeq == b.parentVertex.toSeq, at)
    assert(a.parentEdge.toSeq == b.parentEdge.toSeq, at)
    assert(a.pathTo(t) == refPath(b, t), at)
  }

  test("Dijkstra trees equal the reference's, bit for bit, under bans, noTransit and A*") {
    for ((tag, g) <- randomGraphs; view <- Seq[GraphOps](g, opaque(g))) {
      val rnd = new Random(tag.hashCode)
      val n = g.numVertices
      // One search reused for many runs, as Yen's spurs use it.
      val reused = new Dijkstra.Search(view)
      for (_ <- 1 to 6) {
        val s = rnd.nextInt(n); val t = rnd.nextInt(n)
        val banned = Array.fill(n)(rnd.nextInt(8) == 0)
        val bannedE = Array.fill(g.numEdges)(rnd.nextInt(10) == 0)
        val noTransit = Array.fill(n)(rnd.nextInt(6) == 0)
        val vfrag: Int => Double = e => g.vfrags(e).toDouble
        val h = ReferenceYen.dijkstra(g, t).dist
        val runs = Seq[(String, () => Dijkstra.Result, () => Dijkstra.Result)](
          ("plain", () => Dijkstra.run(view, s), () => ReferenceYen.dijkstra(view, s)),
          ("vfrag", () => Dijkstra.run(view, s, weightOf = vfrag), () => ReferenceYen.dijkstra(view, s, weightOf = vfrag)),
          ("bans", () => Dijkstra.run(view, s, t, banned(_), bannedE(_)),
                   () => ReferenceYen.dijkstra(view, s, t, banned(_), bannedE(_))),
          ("astar", () => Dijkstra.run(view, s, t, banned(_), heuristic = h(_)),
                    () => ReferenceYen.dijkstra(view, s, t, banned(_), heuristic = h(_))),
          ("noTransit", () => Dijkstra.run(view, s, noTransit = noTransit(_)),
                        () => ReferenceYen.dijkstra(view, s, noTransit = noTransit(_))))
        runs.foreach { case (kind, mine, ref) => assertSameTree(mine(), ref(), t, s"$tag $kind s=$s t=$t") }
        assertSameTree(reused.run(s, t, banned(_), bannedE(_), view.edgeWeight, h(_), _ => false),
          ReferenceYen.dijkstra(view, s, t, banned(_), bannedE(_), heuristic = h(_)), t, s"$tag reused astar s=$s t=$t")
        assertSameTree(reused.run(s, -1, _ => false, _ => false, vfrag, null, noTransit(_)),
          ReferenceYen.dijkstra(view, s, weightOf = vfrag, noTransit = noTransit(_)), t, s"$tag reused noTransit s=$s")
      }
    }
  }

  private def refPath(r: Dijkstra.Result, t: Int): Option[Path] =
    if (r.dist(t).isInfinite) None
    else {
      val vs = Iterator.iterate(t)(r.parentVertex(_)).takeWhile(_ >= 0).toVector.reverse
      Some(Path(vs, vs.tail.map(r.parentEdge(_)), r.dist(t)))
    }

  test("Yen.ksp equals the reference: real weights, vfrag weights and an interior ban") {
    for ((tag, g) <- randomGraphs) {
      val rnd = new Random(tag.hashCode + 1)
      val n = g.numVertices
      val vfrag: Int => Double = e => g.vfrags(e).toDouble
      for (_ <- 1 to 5) {
        val s = rnd.nextInt(n); val t = rnd.nextInt(n)
        val allowed = Array.fill(n)(rnd.nextInt(7) != 0)
        val k = 2 + rnd.nextInt(12)
        assertSamePaths(Yen.ksp(g, s, t, k), ReferenceYen.ksp(g, s, t, k), s"$tag real s=$s t=$t")
        assertSamePaths(Yen.ksp(g, s, t, k, weightOf = vfrag), ReferenceYen.ksp(g, s, t, k, weightOf = vfrag),
          s"$tag vfrag s=$s t=$t")
        assertSamePaths(Yen.ksp(opaque(g), s, t, k, interiorAllowed = allowed(_), weightOf = vfrag),
          ReferenceYen.ksp(g, s, t, k, interiorAllowed = allowed(_), weightOf = vfrag), s"$tag banned s=$s t=$t")
      }
    }
  }

  test("YenIterator's peeks and pops equal the reference's, interleaved") {
    val g = TestGraphs.grid(7, 6, 3, maxW = 2)
    val mine = new YenIterator(g, 0, 41)
    val ref = new ReferenceYen.Iterator(g, 0, 41)
    for (i <- 1 to 60) {
      if (i % 3 == 0) assert(mine.peekDistance().map(bits) == ref.peekDistance().map(bits), s"peek $i")
      assertSamePaths(mine.next().toSeq, ref.next().toSeq, s"next $i")
    }
  }

  test("Dtlp.build stores the reference enumeration's prefix and phi bound, before and after drift") {
    val g = RoadNetGen.generate(400, seed = 23)
    val dtlp = Dtlp.build(g, z = 40, xi = 4)
    dtlp.update(TrafficModel.snapshot(g.snapshot(), 0.5, 0.4, 1, 23))
    var checked = 0
    dtlp.subIndexes.foreach { idx =>
      val local = idx.sg.local
      idx.pairs.toSeq.sortBy(_._1).zipWithIndex.filter(_._2 % 4 == 0).foreach { case (((a, b), pb), _) =>
        val want = new ReferenceYen.Iterator(local, idx.sg.localOf(a), idx.sg.localOf(b),
          interiorAllowed = lv => !idx.isLocalBoundary(lv), weightOf = e => local.vfrags(e).toDouble)
        val ref = Iterator.continually(want.next()).takeWhile(_.isDefined).flatten.take(pb.paths.size + 1).toVector
        val at = s"sg=${idx.sg.id} pair=($a,$b)"
        pb.paths.zipWithIndex.foreach { case (bp, j) =>
          assert(bp.localVertices.toSeq == ref(j).vertices, at)
          assert(bp.localEdges.toSeq == ref(j).edgeIds, at)
          assert(bp.phi == math.round(ref(j).distance).toInt, at)
        }
        if (!pb.exactRefresh) {
          if (pb.pathPhiBound == Long.MaxValue) assert(ref.size == pb.paths.size, at)
          else assert(math.round(ref(pb.paths.size).distance) == pb.pathPhiBound, at)
        }
        checked += 1
      }
    }
    assert(checked > 100)
  }

  test("joinSegments equals the reference join on crafted non-simple concatenations") {
    val rnd = new Random(9)
    var nonSimple = 0
    for (round <- 1 to 300) {
      val hops = 2 + rnd.nextInt(3)
      val boundary = (0 to hops).map(_ * 100) // r0, r1, ..., reference path order
      val pool = (1 to 8) ++ boundary         // shared interiors make joins non-simple
      val k = 1 + rnd.nextInt(4)
      val segments = (0 until hops).map { h =>
        val (a, b) = (boundary(h), boundary(h + 1))
        val distinct = mutable.LinkedHashMap.empty[Vector[Int], Path]
        for (_ <- 1 to 1 + rnd.nextInt(7)) {
          val interior = Vector.fill(rnd.nextInt(3))(pool(rnd.nextInt(pool.size))).filter(v => v != a && v != b)
          val vs = a +: interior :+ b
          // integer distances: plenty of ties for the stable order to settle
          distinct.getOrElseUpdate(vs, Path(vs, vs.indices.tail.toVector, (1 + rnd.nextInt(4)).toDouble))
        }
        rnd.shuffle(distinct.values.toVector)
      }
      val want = ReferenceYen.joinSegments(segments, k)
      assertSamePaths(KspDgEngine.joinSegments(segments, k), want, s"round=$round")
      val all = segments.tail.foldLeft(segments.head.map(Seq(_))) { (acc, segs) => for (c <- acc; s <- segs) yield c :+ s }
      if (all.exists(ps => !ReferenceYen.isSimple(ps.reduce(_ ++ _)))) nonSimple += 1
    }
    assert(nonSimple > 100, s"only $nonSimple rounds had a non-simple concatenation")
  }
}
