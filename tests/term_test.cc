#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "term/store.h"
#include "term/symbol.h"

namespace prore::term {
namespace {

TEST(SymbolTableTest, InternIsIdempotent) {
  SymbolTable t;
  Symbol a = t.Intern("foo");
  Symbol b = t.Intern("foo");
  EXPECT_EQ(a, b);
  EXPECT_EQ(t.Name(a), "foo");
}

TEST(SymbolTableTest, DistinctNamesGetDistinctSymbols) {
  SymbolTable t;
  EXPECT_NE(t.Intern("foo"), t.Intern("bar"));
}

TEST(SymbolTableTest, PredefinedSymbolsHaveFixedIds) {
  SymbolTable t;
  EXPECT_EQ(t.Intern("[]"), SymbolTable::kNil);
  EXPECT_EQ(t.Intern("."), SymbolTable::kDot);
  EXPECT_EQ(t.Intern(","), SymbolTable::kComma);
  EXPECT_EQ(t.Intern(";"), SymbolTable::kSemicolon);
  EXPECT_EQ(t.Intern("->"), SymbolTable::kArrow);
  EXPECT_EQ(t.Intern(":-"), SymbolTable::kNeck);
  EXPECT_EQ(t.Intern("!"), SymbolTable::kCut);
  EXPECT_EQ(t.Intern("true"), SymbolTable::kTrue);
  EXPECT_EQ(t.Intern("fail"), SymbolTable::kFail);
  EXPECT_EQ(t.Intern("\\+"), SymbolTable::kNot);
  EXPECT_EQ(t.Intern("call"), SymbolTable::kCall);
  EXPECT_EQ(t.Intern("="), SymbolTable::kUnify);
}

class TermStoreTest : public ::testing::Test {
 protected:
  TermStore store_;
};

TEST_F(TermStoreTest, AtomRoundTrip) {
  TermRef a = store_.MakeAtom("hello");
  EXPECT_EQ(store_.tag(a), Tag::kAtom);
  EXPECT_EQ(store_.symbols().Name(store_.symbol(a)), "hello");
}

TEST_F(TermStoreTest, IntRoundTrip) {
  TermRef i = store_.MakeInt(-42);
  EXPECT_EQ(store_.tag(i), Tag::kInt);
  EXPECT_EQ(store_.int_value(i), -42);
}

TEST_F(TermStoreTest, StructRoundTrip) {
  TermRef x = store_.MakeAtom("x");
  TermRef y = store_.MakeInt(7);
  const TermRef args[] = {x, y};
  TermRef s = store_.MakeStruct("pair", args);
  EXPECT_EQ(store_.tag(s), Tag::kStruct);
  EXPECT_EQ(store_.arity(s), 2u);
  EXPECT_EQ(store_.arg(s, 0), x);
  EXPECT_EQ(store_.arg(s, 1), y);
  PredId id = store_.pred_id(s);
  EXPECT_EQ(store_.symbols().Name(id.name), "pair");
  EXPECT_EQ(id.arity, 2u);
}

TEST_F(TermStoreTest, FreshVarIsUnbound) {
  TermRef v = store_.MakeVar("X");
  EXPECT_EQ(store_.tag(v), Tag::kVar);
  EXPECT_TRUE(store_.IsUnboundVar(v));
  EXPECT_EQ(store_.var_name(v), "X");
}

TEST_F(TermStoreTest, DerefFollowsBindingChains) {
  TermRef v1 = store_.MakeVar();
  TermRef v2 = store_.MakeVar();
  TermRef a = store_.MakeAtom("a");
  store_.BindVar(v1, v2);
  store_.BindVar(v2, a);
  EXPECT_EQ(store_.Deref(v1), a);
  store_.ResetVar(v2);
  EXPECT_EQ(store_.Deref(v1), v2);
}

TEST_F(TermStoreTest, ListHelpers) {
  TermRef items[] = {store_.MakeInt(1), store_.MakeInt(2), store_.MakeInt(3)};
  TermRef l = store_.MakeList(items);
  ASSERT_TRUE(store_.IsCons(l));
  EXPECT_EQ(store_.int_value(store_.Deref(store_.arg(l, 0))), 1);
  TermRef tail = store_.Deref(store_.arg(l, 1));
  ASSERT_TRUE(store_.IsCons(tail));
  EXPECT_TRUE(store_.IsNil(store_.MakeNil()));
}

TEST_F(TermStoreTest, EqualStructural) {
  TermRef a1 = store_.MakeAtom("a");
  TermRef a2 = store_.MakeAtom("a");
  EXPECT_TRUE(store_.Equal(a1, a2));
  const TermRef args1[] = {a1, store_.MakeInt(1)};
  const TermRef args2[] = {a2, store_.MakeInt(1)};
  EXPECT_TRUE(store_.Equal(store_.MakeStruct("f", args1),
                           store_.MakeStruct("f", args2)));
  const TermRef args3[] = {a2, store_.MakeInt(2)};
  EXPECT_FALSE(store_.Equal(store_.MakeStruct("f", args1),
                            store_.MakeStruct("f", args3)));
}

TEST_F(TermStoreTest, DistinctVarsNotEqual) {
  EXPECT_FALSE(store_.Equal(store_.MakeVar(), store_.MakeVar()));
}

TEST_F(TermStoreTest, EqualSeesThroughBindings) {
  TermRef v = store_.MakeVar();
  TermRef a = store_.MakeAtom("a");
  store_.BindVar(v, a);
  EXPECT_TRUE(store_.Equal(v, a));
}

TEST_F(TermStoreTest, StandardOrderRanks) {
  TermRef v = store_.MakeVar();
  TermRef i = store_.MakeInt(5);
  TermRef a = store_.MakeAtom("zzz");
  const TermRef args[] = {i};
  TermRef s = store_.MakeStruct("f", args);
  EXPECT_LT(store_.Compare(v, i), 0);
  EXPECT_LT(store_.Compare(i, a), 0);
  EXPECT_LT(store_.Compare(a, s), 0);
}

TEST_F(TermStoreTest, StandardOrderAtomsAlphabetical) {
  EXPECT_LT(store_.Compare(store_.MakeAtom("abc"), store_.MakeAtom("abd")), 0);
  EXPECT_EQ(store_.Compare(store_.MakeAtom("abc"), store_.MakeAtom("abc")), 0);
}

TEST_F(TermStoreTest, StandardOrderStructsByArityThenNameThenArgs) {
  const TermRef a1[] = {store_.MakeInt(1)};
  const TermRef a2[] = {store_.MakeInt(1), store_.MakeInt(2)};
  // Lower arity first.
  EXPECT_LT(store_.Compare(store_.MakeStruct("z", a1),
                           store_.MakeStruct("a", a2)),
            0);
  // Same arity: name.
  EXPECT_LT(store_.Compare(store_.MakeStruct("a", a1),
                           store_.MakeStruct("b", a1)),
            0);
  // Same name: args.
  const TermRef a3[] = {store_.MakeInt(2)};
  EXPECT_LT(store_.Compare(store_.MakeStruct("a", a1),
                           store_.MakeStruct("a", a3)),
            0);
}

TEST_F(TermStoreTest, GroundCheck) {
  TermRef v = store_.MakeVar();
  const TermRef args[] = {store_.MakeAtom("a"), v};
  TermRef s = store_.MakeStruct("f", args);
  EXPECT_FALSE(store_.IsGround(s));
  store_.BindVar(v, store_.MakeInt(1));
  EXPECT_TRUE(store_.IsGround(s));
}

TEST_F(TermStoreTest, CollectVarsFirstOccurrenceOrder) {
  TermRef x = store_.MakeVar("X");
  TermRef y = store_.MakeVar("Y");
  const TermRef args[] = {x, y, x};
  TermRef s = store_.MakeStruct("f", args);
  std::vector<TermRef> vars;
  store_.CollectVars(s, &vars);
  ASSERT_EQ(vars.size(), 2u);
  EXPECT_EQ(vars[0], x);
  EXPECT_EQ(vars[1], y);
}

TEST_F(TermStoreTest, RenameCreatesFreshVarsSharedWithinTerm) {
  TermRef x = store_.MakeVar("X");
  const TermRef args[] = {x, x};
  TermRef s = store_.MakeStruct("f", args);
  TermRef copy = store_.Rename(s);
  EXPECT_NE(copy, s);
  TermRef cx0 = store_.Deref(store_.arg(copy, 0));
  TermRef cx1 = store_.Deref(store_.arg(copy, 1));
  EXPECT_EQ(cx0, cx1);       // sharing preserved
  EXPECT_NE(cx0, x);         // but fresh
  EXPECT_TRUE(store_.IsUnboundVar(cx0));
}

TEST_F(TermStoreTest, RenameSharesGroundSubterms) {
  const TermRef args[] = {store_.MakeAtom("a"), store_.MakeInt(1)};
  TermRef s = store_.MakeStruct("f", args);
  EXPECT_EQ(store_.Rename(s), s);
}

TEST_F(TermStoreTest, RenameSnapshotsBoundVariables) {
  // A copy must not share structure through a bound variable, because the
  // binding may be undone by backtracking after the copy is taken.
  TermRef v = store_.MakeVar();
  const TermRef args[] = {v};
  TermRef s = store_.MakeStruct("f", args);
  store_.BindVar(v, store_.MakeAtom("a"));
  TermRef copy = store_.Rename(s);
  store_.ResetVar(v);
  // The copy still holds the atom even though v is unbound again.
  TermRef carg = store_.Deref(store_.arg(copy, 0));
  EXPECT_EQ(store_.tag(carg), Tag::kAtom);
  EXPECT_EQ(store_.symbols().Name(store_.symbol(carg)), "a");
}

TEST_F(TermStoreTest, SharedRenameMapAcrossTerms) {
  TermRef x = store_.MakeVar("X");
  const TermRef head_args[] = {x};
  const TermRef body_args[] = {x};
  TermRef head = store_.MakeStruct("h", head_args);
  TermRef body = store_.MakeStruct("b", body_args);
  std::unordered_map<uint32_t, TermRef> var_map;
  TermRef h2 = store_.Rename(head, &var_map);
  TermRef b2 = store_.Rename(body, &var_map);
  EXPECT_EQ(store_.Deref(store_.arg(h2, 0)), store_.Deref(store_.arg(b2, 0)));
}

TEST_F(TermStoreTest, TruncateReclaimsCells) {
  store_.MakeAtom("before");
  TermStore::Mark mark = store_.Watermark();
  for (int i = 0; i < 100; ++i) {
    const TermRef args[] = {store_.MakeInt(i)};
    store_.MakeStruct("f", args);
  }
  EXPECT_GT(store_.NumCells(), mark.cells);
  store_.Truncate(mark);
  EXPECT_EQ(store_.NumCells(), mark.cells);
}

}  // namespace
}  // namespace prore::term
